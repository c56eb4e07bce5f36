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
	// inputPos maps a primary input net to its position in the pairs.
	inputPos []int32

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

// inputPosKey keys the input position map in the circuit's memo.
type inputPosKey struct{}

// inputPositions returns the map from primary input net to input position,
// computed once per circuit.
func inputPositions(c *circuit.Circuit) []int32 {
	return c.Memo(inputPosKey{}, func() any {
		pos := make([]int32, c.NumNets())
		for i, in := range c.Inputs() {
			pos[in] = int32(i)
		}
		return pos
	}).([]int32)
}

// Load makes a batch of up to BatchSize test pairs current and returns the
// number of pairs loaded.  Pairs beyond BatchSize are ignored (call Load
// again with the remainder).  Each pair must have one value per primary
// input of the circuit; on an error the batch is empty.  Load evaluates
// nothing: Detects evaluates the nets it reads.  The pairs' vectors must not
// be modified until the next Load.
func (s *Simulator) Load(pairs []pattern.Pair) (int, error) {
	if s.vals == nil {
		s.inputPos = inputPositions(s.c)
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
func (s *Simulator) BatchMask() uint64 { return logic.LevelMask(len(s.pairs)) }

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
		pos := int(s.inputPos[net])
		for j := range s.pairs {
			v.MergeAt(j, s.pairs[j].Value7(pos))
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
	res := Result{
		Detected:   make([]bool, len(faults)),
		DetectedBy: make([]int, len(faults)),
	}
	for i := range res.DetectedBy {
		res.DetectedBy[i] = -1
	}
	sim := New(c)
	for base := 0; base < len(pairs); base += BatchSize {
		end := base + BatchSize
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := sim.Load(pairs[base:end]); err != nil {
			return Result{}, err
		}
		for fi := range faults {
			if res.Detected[fi] {
				continue
			}
			if mask := sim.Detects(faults[fi], robust); mask != 0 {
				res.Detected[fi] = true
				res.DetectedBy[fi] = base + bits.TrailingZeros64(mask)
				res.NumDetected++
			}
		}
	}
	return res, nil
}

// RunParallel is Run sharded across workers goroutines: the fault list is
// split into contiguous near-even shards and each worker simulates all pairs
// against its shard with its own Simulator over the shared immutable
// circuit.  The result is identical to Run (per-fault detection is
// independent, and each fault still scans the pair batches in order, so
// DetectedBy stays the index of the first detecting pair).  workers <= 1
// falls back to the sequential Run.
func RunParallel(c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool, workers int) (Result, error) {
	if workers > len(faults) {
		workers = len(faults)
	}
	if workers <= 1 {
		return Run(c, pairs, faults, robust)
	}
	res := Result{
		Detected:   make([]bool, len(faults)),
		DetectedBy: make([]int, len(faults)),
	}
	per, extra := len(faults)/workers, len(faults)%workers
	var wg sync.WaitGroup
	errs := make([]error, workers)
	detected := make([]int, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shard, err := Run(c, pairs, faults[lo:hi], robust)
			if err != nil {
				errs[w] = err
				return
			}
			copy(res.Detected[lo:hi], shard.Detected)
			copy(res.DetectedBy[lo:hi], shard.DetectedBy)
			detected[w] = shard.NumDetected
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			return Result{}, errs[w]
		}
		res.NumDetected += detected[w]
	}
	return res, nil
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
