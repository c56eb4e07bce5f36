package core

import (
	"encoding/binary"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// prefixHead is the queue key of a redundant fault: its launch transition
// and the first two nets of its path.  A recorded prefix has at least two
// nets, so only a later fault of the same head can contain it.
type prefixHead struct {
	t             paths.Transition
	first, second circuit.NetID
}

// headOf returns the fault's prefix head, or false when its path has fewer
// than two nets and so no prefix to record.
func headOf(f paths.Fault) (prefixHead, bool) {
	nets := f.Path.Nets
	if len(nets) < 2 {
		return prefixHead{}, false
	}
	return prefixHead{t: f.Transition, first: nets[0], second: nets[1]}, true
}

// appendPrefixKey appends the map key of a path prefix to buf: the launch
// transition, then each net (see appendNetKey).
func appendPrefixKey(buf []byte, t paths.Transition, nets []circuit.NetID) []byte {
	buf = append(buf, byte(t))
	for _, net := range nets {
		buf = appendNetKey(buf, net)
	}
	return buf
}

// appendNetKey extends a prefix key by one net, as four little-endian bytes:
// a fault's keys for growing prefix lengths are prefixes of each other, so
// one buffer serves all of them.
func appendNetKey(buf []byte, net circuit.NetID) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(net))
}

// markSelfConflicting marks a fault redundant whose requirements conflict by
// their closure alone, before any decision, and queues it under its head
// for the subpath search (see pruneIfKnownRedundant).  Only such a fault has
// a conflicting prefix: a fault proved redundant by an exhausted APTPG
// search has a conflict-free closure, and so has every prefix of it.
func (g *Generator) markSelfConflicting(r *rec, phase Phase) {
	g.markRedundant(r, phase)
	if h, ok := headOf(r.fault); ok && g.opts.SubpathPruning {
		g.prefixQueue[h] = append(g.prefixQueue[h], r.fault)
	}
}

// pruneIfKnownRedundant checks whether the fault contains a subpath already
// proved unsensitizable and, if so, marks it redundant without any search.
// It first searches the prefixes of the faults queued under the fault's
// head, the only queued faults whose prefixes it can contain, so its
// decisions are those of recording every prefix as soon as its fault was
// proved redundant.  It runs at unit start, while no search holds a state.
func (g *Generator) pruneIfKnownRedundant(r *rec) bool {
	h, ok := headOf(r.fault)
	if !ok {
		return false
	}
	g.searchQueued(h)
	if len(g.redundantPrefixes) == 0 {
		return false
	}
	buf := append(g.keyBuf[:0], byte(r.fault.Transition))
	pruned := false
	for i, net := range r.fault.Path.Nets {
		buf = appendNetKey(buf, net)
		if i > 0 && g.redundantPrefixes[string(buf)] {
			pruned = true
			break
		}
	}
	g.keyBuf = buf
	if pruned {
		g.markRedundant(r, PhasePruning)
		g.stats.PrunedRedundant++
	}
	return pruned
}

// searchQueued records the prefixes of the faults queued under h and
// empties its bucket.
func (g *Generator) searchQueued(h prefixHead) {
	queued, ok := g.prefixQueue[h]
	if !ok {
		return
	}
	delete(g.prefixQueue, h)
	for _, f := range queued {
		// The fault was sensitized before it was queued.
		if cond, err := g.sensitize(f); err == nil {
			g.recordRedundantPrefix(f, cond.Assignments)
		}
	}
}

// recordRedundantPrefix finds the shortest prefix of the redundant fault's
// path whose sensitization requirements are already contradictory, and
// records it so later faults sharing the prefix are pruned, exactly as in
// the Figure 1 discussion of the paper ("all paths containing this subpath
// are proved to be redundant, too").  cond is the fault's full conditions.
//
// The candidate lengths are tested bit-parallel on one word of the
// generator's own implication state (the single-word APTPG state where the
// engine has one): bit level k carries the conditions of one candidate
// length (the assignments with Pos below it) plus the launch, so one
// implication tests up to 64 lengths.  Requirements grow with the length, so
// the conflicting levels are a suffix of the candidates and the lowest one is
// the shortest conflicting prefix.  A path of at most 65 nets is settled in
// one round, level k carrying length k+2; a longer one spreads 64 lengths
// over the open range and narrows the range 64 times per round.
func (g *Generator) recordRedundantPrefix(f paths.Fault, cond []sensitize.Assignment) {
	st := g.st
	if g.aptpgSt != nil {
		st = g.aptpgSt
	}
	nets := f.Path.Nets
	launch := g.launchValue(f.Transition)
	var lengths [logic.WordWidth]int
	// Once a round has found a conflict, hi is the shortest conflicting
	// length seen and the shortest of all lies in [lo, hi]; every round
	// tests hi again, so a round without a conflict is the first one.
	lo, hi := 2, len(nets)
	if hi < lo {
		return
	}
	for {
		n := hi - lo + 1
		levels := min(n, logic.WordWidth)
		for k := 0; k < levels; k++ {
			lengths[k] = lo + (k+1)*n/levels - 1
		}
		all := logic.LevelsMask(levels)
		st.Reset(all)
		for _, a := range cond {
			// The assignment belongs to every candidate longer than its
			// position: the levels from the first such length upwards.
			k, _ := slices.BinarySearch(lengths[:levels], int(a.Pos)+1)
			if k < levels {
				st.AddRequirement(a.Net, a.Value, all.AndNot(logic.LevelsMask(k)))
			}
		}
		st.AssignPI(f.Path.Input(), launch, all)
		conf := st.Imply()
		if conf.IsZero() {
			return // the conflict needs the whole path plus implications elsewhere
		}
		k := conf.TrailingZeros()
		if k > 0 {
			lo = lengths[k-1] + 1
		}
		hi = lengths[k]
		if lo == hi {
			break
		}
	}
	g.keyBuf = appendPrefixKey(g.keyBuf[:0], f.Transition, nets[:hi])
	if !g.redundantPrefixes[string(g.keyBuf)] {
		g.redundantPrefixes[string(g.keyBuf)] = true
	}
}

// cloneQueue copies a prefix queue for a worker.  The buckets are clipped,
// so a worker appending to one never writes into an array another worker
// shares.
func cloneQueue(q map[prefixHead][]paths.Fault) map[prefixHead][]paths.Fault {
	c := make(map[prefixHead][]paths.Fault, len(q))
	for h, fs := range q {
		c[h] = slices.Clip(fs)
	}
	return c
}

// absorbQueues sets g's prefix queue to what the workers of a sharded run
// left of it.  Every worker started from a copy of g's queue, so a fault of
// that queue stays only if no worker searched it, and a fault the workers
// queued during the run is added once, however many of them queued it.
func (g *Generator) absorbQueues(gens []*Generator) {
	old := g.prefixQueue
	g.prefixQueue = make(map[prefixHead][]paths.Fault, len(old))
	//atpgvet:ignore detmerge -- order-independent: each head's bucket is rebuilt on its own, and the prefixes searched from a bucket do not depend on its order
	for h, fs := range old {
		for _, f := range fs {
			if !slices.ContainsFunc(gens, func(w *Generator) bool { return !holdsFault(w.prefixQueue[h], f) }) {
				g.prefixQueue[h] = append(g.prefixQueue[h], f)
			}
		}
	}
	for _, w := range gens {
		//atpgvet:ignore detmerge -- order-independent, as above
		for h, fs := range w.prefixQueue {
			for _, f := range fs {
				if !holdsFault(old[h], f) && !holdsFault(g.prefixQueue[h], f) {
					g.prefixQueue[h] = append(g.prefixQueue[h], f)
				}
			}
		}
	}
}

// holdsFault reports whether fs holds the path delay fault f.
func holdsFault(fs []paths.Fault, f paths.Fault) bool {
	return slices.ContainsFunc(fs, func(q paths.Fault) bool {
		return q.Transition == f.Transition && slices.Equal(q.Path.Nets, f.Path.Nets)
	})
}
