// Package a is the scratchalias fixture: retained, grown and stale uses of
// State-owned scratch slices (both results of UnjustifiedWord), the legal
// local-iteration forms, the //atpgvet:scratch annotation, and the
// suppression cases.
package a

import "repro/tools/atpgvet/analyzers/scratchalias/testdata/src/implic"

type holder struct {
	saved []int
	miss  []uint64
}

var (
	global     []int
	globalMiss []uint64
)

func storeField(h *holder, s *implic.State) {
	h.saved, h.miss = s.UnjustifiedWord(0) // want `non-local location` `non-local location`
}

func storeGlobal(s *implic.State) {
	x, m := s.UnjustifiedWord(0)
	global = x     // want `package-level variable`
	globalMiss = m // want `package-level variable`
}

func storeFieldLater(h *holder, s *implic.State) {
	u, m := s.UnjustifiedWord(0)
	h.saved = u // want `stored in h.saved`
	h.miss = m  // want `stored in h.miss`
}

func returnScratch(s *implic.State) ([]int, []uint64) {
	return s.UnjustifiedWord(0) // want `returned to the caller`
}

func returnBinding(s *implic.State) []int {
	u, _ := s.UnjustifiedWord(0)
	return u // want `returned to the caller`
}

func returnMiss(s *implic.State) []uint64 {
	_, m := s.UnjustifiedWord(0)
	return m // want `returned to the caller`
}

func appendScratch(s *implic.State) {
	u, m := s.UnjustifiedWord(0)
	u = append(u, 7) // want `grows a State-owned buffer`
	m = append(m, 1) // want `grows a State-owned buffer`
	_, _ = u, m
}

func useAfterMutation(s *implic.State) int {
	u, m := s.UnjustifiedWord(0)
	s.Imply()
	return u[0] + int(m[0]) // want `used after a mutating call` `used after a mutating call`
}

func mutateInRange(s *implic.State) {
	nets, _ := s.UnjustifiedWord(0)
	for range nets {
		s.Assign() // want `mutates the scratch slice being iterated`
	}
}

func mutateInRangeMiss(s *implic.State) {
	_, miss := s.UnjustifiedWord(0)
	for _, m := range miss {
		if m != 0 {
			s.Undo() // want `mutates the scratch slice being iterated`
		}
	}
}

// localIterate is the legal form: consume the scratch before the next call
// on the receiver.
func localIterate(s *implic.State) int {
	sum := 0
	nets, miss := s.UnjustifiedWord(1)
	for i, n := range nets {
		sum += n + int(miss[i])
	}
	u, _ := s.UnjustifiedWord(2)
	for _, n := range u {
		sum += n
	}
	return sum
}

// Wrap re-exports the scratch buffers legally by carrying the annotation.
type Wrap struct{ st *implic.State }

// Frontier hands out the State's scratch buffers unchanged.
//
//atpgvet:scratch
func (w *Wrap) Frontier() ([]int, []uint64) {
	return w.st.UnjustifiedWord(0)
}

func reexport(w *Wrap) ([]int, []uint64) {
	return w.Frontier() // want `returned to the caller`
}

func useFrontier(w *Wrap) int {
	total := 0
	nets, _ := w.Frontier()
	for _, n := range nets {
		total += n
	}
	return total
}

func suppressedStore(h *holder, s *implic.State) {
	h.saved, h.miss = s.UnjustifiedWord(0) //atpgvet:ignore scratchalias -- fixture: holder is consumed before the next State call
}

func reasonlessStore(h *holder, s *implic.State) {
	h.saved, _ = s.UnjustifiedWord(0) //atpgvet:ignore scratchalias // want `needs a reason` `non-local location`
}
