// Redundancy identification: run robust generation on a circuit that
// contains unsensitizable paths and show how a conflict during implication
// (with no optional assignments) proves a fault redundant.  This is also how
// the generator applies the rule discussed around Figure 1 of the paper,
// that every path through an unsensitizable subpath is redundant: a fault
// through the subpath carries its requirements, so its bit level conflicts
// at the FPTPG group's first implication.  One group's first implication
// proves all six faults through g2 here, with no search and no decision.
//
// Run with:
//
//	go run ./examples/redundancy
package main

import (
	"context"
	"fmt"

	"repro/atpg"
)

func main() {
	c, err := atpg.Builtin("redundant")
	if err != nil {
		panic(err)
	}
	fmt.Println("circuit:", c)
	fmt.Println(`gate g2 computes a AND (NOT a) AND b, so no transition can ever pass through it
robustly: every path through g2 is a robustly redundant path delay fault.`)
	fmt.Println()

	faults := atpg.AllFaults(c, 0)
	e, err := atpg.New(c, atpg.WithMode(atpg.Robust))
	if err != nil {
		panic(err)
	}
	results, err := e.Run(context.Background(), faults)
	if err != nil {
		panic(err)
	}

	byPhase := map[atpg.Phase]int{}
	decisions := 0
	for _, r := range results {
		fmt.Printf("%-36s %-10s settled by %s\n", c.Describe(r.Fault), r.Status, r.Phase)
		if r.Status == atpg.Redundant {
			byPhase[r.Phase]++
			decisions += r.Decisions
		}
	}
	cov := e.Coverage()
	fmt.Println()
	fmt.Printf("redundant faults: %d (%d settled by fptpg, %d by aptpg), proved with %d decisions in %d FPTPG group(s)\n",
		cov.Redundant, byPhase[atpg.PhaseFPTPG], byPhase[atpg.PhaseAPTPG], decisions, e.Stats().FPTPGGroups)
	fmt.Printf("tested faults:    %d\n", cov.Detected)
	fmt.Printf("aborted faults:   %d (efficiency %.2f%%)\n", cov.Aborted, cov.Efficiency())
}
