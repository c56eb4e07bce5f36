package logic

import "testing"

func TestLevelMask(t *testing.T) {
	if LevelMask(0) != 0 {
		t.Errorf("LevelMask(0) = %x", LevelMask(0))
	}
	if LevelMask(1) != 1 {
		t.Errorf("LevelMask(1) = %x", LevelMask(1))
	}
	if LevelMask(8) != 0xff {
		t.Errorf("LevelMask(8) = %x", LevelMask(8))
	}
	if LevelMask(64) != AllLevels {
		t.Errorf("LevelMask(64) = %x", LevelMask(64))
	}
	if LevelMask(100) != AllLevels {
		t.Errorf("LevelMask(100) = %x", LevelMask(100))
	}
	if LevelMask(-3) != 0 {
		t.Errorf("LevelMask(-3) = %x", LevelMask(-3))
	}
}
