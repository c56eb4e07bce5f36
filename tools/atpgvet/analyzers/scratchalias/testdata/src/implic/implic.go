// Package implic mocks the engine's implication state for scratchalias
// fixtures; the analyzer matches by (package path suffix "implic", type
// State, method name).
package implic

// State mimics repro/internal/implic.State's scratch-slice interface.
type State struct {
	nets []int
	miss []uint64
}

// UnjustifiedWord returns two State-owned scratch slices.
func (s *State) UnjustifiedWord(w int) ([]int, []uint64) { return s.nets, s.miss }

// Assign is a mutating call.
func (s *State) Assign() {}

// Undo is a mutating call.
func (s *State) Undo() {}

// Imply is a mutating call.
func (s *State) Imply() bool { return true }

// Reset is a mutating call.
func (s *State) Reset() {}

// ForwardSim is a mutating call.
func (s *State) ForwardSim() {}
