// Package sensitize computes the path sensitization conditions for path
// delay faults: the values required on the on-path signals and on the
// off-path (side) inputs of every gate along the target path, for both the
// nonrobust and the robust test classes.
//
// The conditions follow the classical formulation used by the paper (and by
// Lin/Reddy for the robust class):
//
//   - every on-path signal carries the transition launched at the path input,
//     with its direction flipped by inverting gates;
//   - for nonrobust tests, every off-path input of an on-path gate must take
//     the gate's non-controlling value in the final (second) vector;
//   - for robust tests, an off-path input must in addition be stable at the
//     non-controlling value whenever the on-path input of its gate changes
//     towards the controlling value; when the on-path input changes towards
//     the non-controlling value the final non-controlling value suffices;
//   - XOR/XNOR gates have no controlling value: their off-path inputs must be
//     stable for both test classes; this package fixes them at stable 0,
//     matching the parity convention used by paths.Fault.Transitions.
package sensitize

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
)

// Mode selects the test class the conditions are generated for.
type Mode uint8

// The two test classes of the paper.
const (
	Nonrobust Mode = iota
	Robust
)

// String returns "nonrobust" or "robust".
func (m Mode) String() string {
	if m == Robust {
		return "robust"
	}
	return "nonrobust"
}

// ParseMode parses "robust" or "nonrobust".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "robust":
		return Robust, nil
	case "nonrobust":
		return Nonrobust, nil
	}
	return Nonrobust, fmt.Errorf("sensitize: unknown mode %q (want robust or nonrobust)", s)
}

// Assignment is a single value requirement produced by sensitization.
type Assignment struct {
	Net   circuit.NetID
	Value logic.Value7
	// OnPath marks requirements on the target path itself (as opposed to
	// off-path side inputs).
	OnPath bool
}

// Conditions is the full set of requirements for one fault.
type Conditions struct {
	Fault       paths.Fault
	Mode        Mode
	Assignments []Assignment
}

// Sensitize computes the sensitization conditions of the fault in the given
// mode.  It returns an error if the fault's path is not structurally valid
// for the circuit.  Conflicting requirements (for example a net that is both
// an on-path signal and a side input demanding an incompatible value) are
// not resolved here; they are merged and detected by the implication engine,
// which is what identifies such faults as redundant.
func Sensitize(c *circuit.Circuit, f paths.Fault, mode Mode) (Conditions, error) {
	if err := f.Path.Validate(c); err != nil {
		return Conditions{}, fmt.Errorf("sensitize: %w", err)
	}
	trans := f.Transitions(c)
	// One requirement per on-path net plus one per side input.
	size := f.Path.Len()
	for _, net := range f.Path.Nets[1:] {
		if fanin := len(c.Gate(net).Fanin); fanin > 1 {
			size += fanin - 1
		}
	}
	cond := Conditions{Fault: f, Mode: mode, Assignments: make([]Assignment, 0, size)}

	// On-path requirements.
	for i, net := range f.Path.Nets {
		var v logic.Value7
		if mode == Robust {
			v = trans[i].Value7()
		} else {
			v = logic.Value7From3(trans[i].FinalValue3())
		}
		cond.Assignments = append(cond.Assignments, Assignment{Net: net, Value: v, OnPath: true})
	}

	// Off-path requirements: for every gate on the path (all path nets except
	// the primary input), every fanin that is not the on-path predecessor is
	// a side input.
	for i := 1; i < f.Path.Len(); i++ {
		gateNet := f.Path.Nets[i]
		onPathIn := f.Path.Nets[i-1]
		g := c.Gate(gateNet)
		if len(g.Fanin) < 2 {
			continue // BUF/NOT have no side inputs
		}
		side, err := SideInputValue(g.Kind, trans[i-1], mode)
		if err != nil {
			return Conditions{}, fmt.Errorf("sensitize: gate %s: %w", g.Name, err)
		}
		seenOnPath := false
		for _, fanin := range g.Fanin {
			if fanin == onPathIn && !seenOnPath {
				// Only the first occurrence is the on-path connection; a gate
				// may (in degenerate netlists) list the same net twice.
				seenOnPath = true
				continue
			}
			cond.Assignments = append(cond.Assignments, Assignment{Net: fanin, Value: side})
		}
	}
	return cond, nil
}

// SideInputValue returns the value required on an off-path input of a gate
// of the given kind when the on-path input carries the given transition, for
// the given test class.
func SideInputValue(kind logic.Kind, onPath paths.Transition, mode Mode) (logic.Value7, error) {
	switch kind {
	case logic.And, logic.Nand, logic.Or, logic.Nor:
		ctrl, _ := kind.Controlling()
		nonCtrl, _ := kind.NonControlling()
		// Does the on-path input change towards the controlling value?
		towardsControlling := onPath.FinalValue3() == ctrl
		if mode == Robust && towardsControlling {
			// Robust tests demand the side inputs be steady at the
			// non-controlling value, otherwise an early change of a side
			// input could mask the late on-path transition.
			if nonCtrl == logic.One3 {
				return logic.Stable1, nil
			}
			return logic.Stable0, nil
		}
		// Nonrobust tests, and robust tests with the on-path transition
		// towards the non-controlling value, only need the final value.
		return logic.Value7From3(nonCtrl), nil
	case logic.Xor, logic.Xnor:
		// No controlling value: side inputs must not change.  Stable 0 is
		// the parity convention used throughout (paths.Fault.Transitions).
		if mode == Robust {
			return logic.Stable0, nil
		}
		return logic.Final0, nil
	case logic.Buf, logic.Not:
		return logic.X7, nil
	}
	return logic.X7, fmt.Errorf("gate kind %v cannot appear on a sensitized path", kind)
}

// SelfConflicting reports whether the conditions already contradict each
// other on some net, before any implication is performed (for example a
// reconvergent side input required at both 0 and 1).  Such faults are
// trivially redundant for the given test class.
func (cond Conditions) SelfConflicting() bool {
	merged := make(map[circuit.NetID]logic.Value7)
	for _, a := range cond.Assignments {
		v := merged[a.Net].Merge(a.Value)
		if v.IsConflict() {
			return true
		}
		merged[a.Net] = v
	}
	return false
}
