// Package faultsim implements parallel-pattern path delay fault simulation.
//
// Up to 64 two-vector tests are simulated simultaneously: bit level i of
// every value word corresponds to test pair i of the batch, mirroring the
// parallel-pattern fault simulators the paper builds on.  Each primary input
// is driven with the seven-valued value describing its behaviour across the
// two vectors (stable, rising, falling, or final-only when the first vector
// leaves it unspecified), and every fault's detection condition is checked
// along its path with word-wide mask operations.  Simulation is demand
// driven: a net is evaluated only when a detection check reads it, at most
// once per batch, so a check costs the fanin cone of its path and side
// inputs rather than the whole circuit.
package faultsim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// Simulator evaluates batches of up to 64 test pairs against path delay
// faults.  A Simulator is bound to one circuit and reused across batches.
type Simulator struct {
	c *circuit.Circuit
	// pairs is the loaded batch.  Only the pair headers are copied: the
	// vectors are read when an input net is first evaluated, so they must not
	// change until the next Load.
	pairs []pattern.Pair

	// vals[net] holds the net's value for the loaded batch when bit net of
	// done is set; Load clears done, which invalidates every value at once.
	vals []logic.Word7
	done []uint64

	// faninBuf is the evaluation stack of fanin values: a gate pushes its
	// fanins' values, evaluates them and pops them again, so nested cone
	// evaluations share one buffer and do not allocate.
	faninBuf []logic.Word7
}

// New returns a simulator for the circuit.  The per-net state is allocated
// by the first Load, so a simulator that is never loaded (that of a
// generator whose workers do the generating) costs nothing.
func New(c *circuit.Circuit) *Simulator { return &Simulator{c: c} }

// BatchSize is the maximum number of test pairs per batch.
const BatchSize = logic.WordWidth

// Load makes a batch of up to BatchSize test pairs current and returns the
// number of pairs loaded.  Pairs beyond BatchSize are ignored (call Load
// again with the remainder).  Each pair must have one value per primary
// input of the circuit; on an error the batch is empty.  Load evaluates
// nothing: Detects evaluates the nets it reads.  The pairs' vectors must not
// be modified until the next Load.
func (s *Simulator) Load(pairs []pattern.Pair) (int, error) {
	if s.vals == nil {
		s.vals = make([]logic.Word7, s.c.NumNets())
		s.done = make([]uint64, (s.c.NumNets()+63)/64)
	}
	clear(s.done)
	s.pairs = s.pairs[:0]
	n := min(len(pairs), BatchSize)
	inputs := len(s.c.Inputs())
	for j := 0; j < n; j++ {
		if len(pairs[j].V1) != inputs || len(pairs[j].V2) != inputs {
			return 0, fmt.Errorf("faultsim: pair %d has %d/%d values for %d inputs", j, len(pairs[j].V1), len(pairs[j].V2), inputs)
		}
	}
	s.pairs = append(s.pairs, pairs[:n]...)
	return n, nil
}

// BatchMask returns the mask of bit levels occupied by the current batch.
func (s *Simulator) BatchMask() uint64 { return uint64(logic.LevelsMask(len(s.pairs))) }

// value returns the value word of net for the current batch, evaluating the
// net's fanin cone down to the nets already evaluated for this batch.
//
//atpgvet:noalloc
func (s *Simulator) value(net circuit.NetID) logic.Word7 {
	word, bit := net/64, uint64(1)<<uint(net%64)
	if s.done[word]&bit != 0 {
		return s.vals[net]
	}
	var v logic.Word7
	g := s.c.Gate(net)
	if g.Kind == logic.Input {
		// Gather the Table 1 codes of the input's V1 and V2 values into
		// planes, one bit per pair, and derive the seven-valued planes from
		// them word-wide (pattern.Pair.Value7 per bit level).
		pos := s.c.InputPos(net)
		var z1, o1, z2, o2 uint64
		for j := range s.pairs {
			a, b := uint64(s.pairs[j].V1[pos]), uint64(s.pairs[j].V2[pos])
			z1 |= (a & 1) << uint(j)
			o1 |= (a >> 1 & 1) << uint(j)
			z2 |= (b & 1) << uint(j)
			o2 |= (b >> 1 & 1) << uint(j)
		}
		// A value is assigned when exactly one of its two bits is set; the
		// input is stable when both vectors are assigned and agree, and
		// carries a transition when both are assigned and differ.
		both := (z1 ^ o1) & (z2 ^ o2)
		v = logic.Word7{
			Zero:     z2 &^ o2,
			One:      o2 &^ z2,
			Stable:   both &^ (z1 ^ z2),
			Instable: both & (z1 ^ z2),
		}
	} else {
		base := len(s.faninBuf)
		for _, f := range g.Fanin {
			// Evaluate before appending: the nested evaluation may
			// reallocate faninBuf.
			fv := s.value(f)
			s.faninBuf = append(s.faninBuf, fv)
		}
		v = logic.EvalGate7(g.Kind, s.faninBuf[base:])
		s.faninBuf = s.faninBuf[:base]
	}
	s.vals[net] = v
	s.done[word] |= bit
	return v
}

// Detects returns the mask of test pairs of the current batch that detect
// the fault, robustly when robust is true and nonrobustly otherwise.
//
// A pair detects the fault nonrobustly when it launches the fault's
// transition at the path input and every off-path input of every on-path
// gate holds the gate's non-controlling value in the final vector (off-path
// inputs of XOR-type gates must be stable).  For robust detection the
// off-path inputs must additionally be stable at the non-controlling value
// whenever the on-path input of their gate changes towards the controlling
// value, and the simulated on-path signals must carry the expected
// transitions (paths.Fault.Transitions).  The check stops at the first net
// that leaves no detecting pair, so only the nets read up to there are
// evaluated.
//
//atpgvet:noalloc
func (s *Simulator) Detects(f paths.Fault, robust bool) uint64 {
	nets := f.Path.Nets
	t := f.Transition

	if len(s.pairs) == 0 {
		return 0
	}
	// The launch transition must be present at the path input.
	mask := s.BatchMask() & s.transitionMask(nets[0], t)
	for i := 1; i < len(nets) && mask != 0; i++ {
		g := s.c.Gate(nets[i])
		onPath := nets[i-1]
		in := t // the transition on the gate's on-path input
		if g.Kind.Inverting() {
			t = t.Invert()
		}
		if robust {
			// The transition must propagate along the path.
			mask &= s.transitionMask(nets[i], t)
			if mask == 0 {
				return 0
			}
		}
		if len(g.Fanin) < 2 {
			continue
		}
		seenOnPath := false
		for _, fanin := range g.Fanin {
			if fanin == onPath && !seenOnPath {
				seenOnPath = true
				continue
			}
			mask &= s.sideInputMask(g.Kind, fanin, in, robust)
			if mask == 0 {
				return 0
			}
		}
	}
	return mask
}

// transitionMask returns the pairs on which net carries exactly the given
// transition.
func (s *Simulator) transitionMask(net circuit.NetID, t paths.Transition) uint64 {
	v := s.value(net)
	if t == paths.Rising {
		return v.One & v.Instable
	}
	return v.Zero & v.Instable
}

// sideInputMask returns the pairs on which the off-path input satisfies the
// propagation condition of the gate kind for the given on-path transition.
func (s *Simulator) sideInputMask(kind logic.Kind, side circuit.NetID, onPath paths.Transition, robust bool) uint64 {
	switch kind {
	case logic.And, logic.Nand, logic.Or, logic.Nor:
		v := s.value(side)
		ctrl, _ := kind.Controlling()
		nonCtrlPlane := v.One
		if nc, _ := kind.NonControlling(); nc == logic.Zero3 {
			nonCtrlPlane = v.Zero
		}
		if robust && onPath.FinalValue3() == ctrl {
			// Change towards the controlling value: the side input must be
			// steady at the non-controlling value.
			return nonCtrlPlane & v.Stable
		}
		return nonCtrlPlane
	case logic.Xor, logic.Xnor:
		// No controlling value: the side input must not change.
		return s.value(side).Stable
	}
	// BUF/NOT have no side inputs; anything else cannot be on a path.
	return s.BatchMask()
}

// Result summarises a fault-simulation run.
type Result struct {
	// Detected[i] is true when fault i of the fault list is detected by at
	// least one pair.
	Detected []bool
	// DetectedBy[i] is the index of the first detecting pair, or -1.
	DetectedBy []int
	// NumDetected counts the detected faults.
	NumDetected int
}

// Run simulates all pairs (in batches of BatchSize) against all faults and
// reports which faults are detected.
func Run(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) (Result, error) {
	return RunOn([]*Simulator{New(c)}, pairs, faults, robust)
}

// RunParallel is Run on workers simulators: the pair batches are spread over
// them by EachBatch, each simulator evaluating its batches against the
// whole fault list.  The result is identical to Run.  workers <= 1, or a
// set of at most one batch, runs on one simulator.
func RunParallel(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool, workers int) (Result, error) {
	workers = max(1, min(workers, (len(pairs)+BatchSize-1)/BatchSize))
	sims := make([]*Simulator, workers)
	for w := range sims {
		sims[w] = New(c)
	}
	return RunOn(sims, pairs, faults, robust)
}

// RunOn is Run on the given simulators, which must be bound to the pairs'
// circuit: the batches are spread over them by EachBatch, every simulator
// skips the faults its own earlier batches detected, and a fault's first
// detecting pair is the least index over all batches.  The result is
// therefore Run's whatever the number of simulators.
func RunOn(sims []*Simulator, pairs []pattern.Pair, faults []paths.Fault, robust bool) (Result, error) {
	// first[w][i] is the first pair of simulator w's batches detecting
	// fault i, or -1.
	first := make([][]int, len(sims))
	for w := range first {
		first[w] = make([]int, len(faults))
		for i := range first[w] {
			first[w][i] = -1
		}
	}
	err := EachBatch(sims, pairs, func(w, base int, s *Simulator) {
		by := first[w]
		for i, f := range faults {
			if by[i] >= 0 {
				continue
			}
			if mask := s.Detects(f, robust); mask != 0 {
				by[i] = base + bits.TrailingZeros64(mask)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{Detected: make([]bool, len(faults)), DetectedBy: first[0]}
	for _, by := range first[1:] {
		for i, p := range by {
			if p >= 0 && (res.DetectedBy[i] < 0 || p < res.DetectedBy[i]) {
				res.DetectedBy[i] = p
			}
		}
	}
	for i, p := range res.DetectedBy {
		if p >= 0 {
			res.Detected[i] = true
			res.NumDetected++
		}
	}
	return res, nil
}

// EachBatch is the batch-sharded simulation driver: batch b of the pairs,
// pairs[b*BatchSize:(b+1)*BatchSize], is loaded into sims[b%len(sims)] and
// handed to visit with the simulator's index w and the batch's first pair
// index base.  Each simulator runs its batches in increasing order on its
// own goroutine (a single simulator runs on the calling goroutine), so
// visit may write state indexed by w, or by the batch's pairs, without
// locking.  Splitting by batch rather than by fault evaluates each batch's
// shared cones once.  A batch that does not load ends its simulator's
// share; the error returned is that of the lowest failing batch, the one a
// sequential pass stops at.
func EachBatch(sims []*Simulator, pairs []pattern.Pair, visit func(w, base int, s *Simulator)) error {
	batches := (len(pairs) + BatchSize - 1) / BatchSize
	workers := min(len(sims), batches)
	failed := make([]int, workers)
	errs := make([]error, workers)
	shard := func(w int) {
		for b := w; b < batches; b += len(sims) {
			base := b * BatchSize
			if _, err := sims[w].Load(pairs[base:min(base+BatchSize, len(pairs))]); err != nil {
				failed[w], errs[w] = b, err
				return
			}
			visit(w, base, sims[w])
		}
	}
	if workers == 1 {
		shard(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				shard(w)
			}()
		}
		wg.Wait()
	}
	lowest := -1
	for w, err := range errs {
		if err != nil && (lowest < 0 || failed[w] < failed[lowest]) {
			lowest = w
		}
	}
	if lowest < 0 {
		return nil
	}
	return errs[lowest]
}

// Coverage returns the fraction of the given faults detected by the pairs.
func Coverage(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) (float64, error) {
	if len(faults) == 0 {
		return 0, nil
	}
	res, err := Run(c, pairs, faults, robust)
	if err != nil {
		return 0, err
	}
	return float64(res.NumDetected) / float64(len(faults)), nil
}

// EstimateCoverage estimates the path delay fault coverage of a test set by
// simulating a uniform sample of sampleSize faults (in the spirit of
// non-enumerative coverage estimators such as NEST).  It returns the
// estimated coverage and the number of sampled faults actually simulated.
func EstimateCoverage(c *circuit.Circuit, pairs []pattern.Pair, sampleSize int, seed int64, robust bool) (float64, int, error) {
	faults := paths.SampleFaults(c, sampleSize, seed)
	if len(faults) == 0 {
		return 0, 0, nil
	}
	cov, err := Coverage(c, pairs, faults, robust)
	return cov, len(faults), err
}
