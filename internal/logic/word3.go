package logic

// WordWidth is the number of bit levels held by a Word7 or by one plane word
// of a Word7V: the machine word length L exploited by the bit-parallel
// generator.
const WordWidth = 64

// AllLevels is the mask selecting every bit level of a word.
const AllLevels uint64 = ^uint64(0)

// LevelMask returns the mask selecting the lowest n bit levels.  It is used
// to restrict the engine to a narrower effective word width (for example the
// single-bit baseline uses LevelMask(1)).
func LevelMask(n int) uint64 {
	if n <= 0 {
		return 0
	}
	if n >= WordWidth {
		return AllLevels
	}
	return (uint64(1) << uint(n)) - 1
}
