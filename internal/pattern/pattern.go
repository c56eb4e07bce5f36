// Package pattern represents two-vector delay test patterns and test sets.
//
// A path delay test is a pair of input vectors (V1, V2): V1 initialises the
// circuit, V2 launches the transitions, and the outputs are sampled one
// clock period after V2 is applied.  Vectors are stored positionally,
// aligned with circuit.Inputs().
package pattern

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Pair is a two-vector test.  V1 and V2 hold one three-valued value per
// primary input, in the order of circuit.Inputs().  X entries are inputs the
// test does not care about.
type Pair struct {
	V1 []logic.Value3
	V2 []logic.Value3
}

// NewPair returns a pair with both vectors fully unassigned for a circuit
// with n primary inputs.
func NewPair(n int) Pair {
	// X3 is the zero Value3, so fresh vectors are unassigned.
	return Pair{V1: make([]logic.Value3, n), V2: make([]logic.Value3, n)}
}

// Len returns the number of inputs covered by the pair.
func (p Pair) Len() int { return len(p.V2) }

// Clone returns a deep copy.
func (p Pair) Clone() Pair {
	return Pair{
		V1: append([]logic.Value3(nil), p.V1...),
		V2: append([]logic.Value3(nil), p.V2...),
	}
}

// FillX replaces every unassigned value by fill in both vectors (keeping
// V1 = V2 at positions where both were X, so no spurious transitions are
// introduced).
func (p Pair) FillX(fill logic.Value3) Pair {
	out := p.Clone()
	for i := range out.V1 {
		if out.V2[i] == logic.X3 {
			out.V2[i] = fill
		}
		if out.V1[i] == logic.X3 {
			out.V1[i] = out.V2[i]
		}
	}
	return out
}

// Value7 returns the seven-valued value seen by input position i across the
// two vectors: a stable value when V1 equals V2, a transition when they
// differ, and the weaker final-only value when V1 is unknown.
func (p Pair) Value7(i int) logic.Value7 {
	v1, v2 := p.V1[i], p.V2[i]
	switch {
	case !v2.IsAssigned():
		return logic.X7
	case !v1.IsAssigned():
		return logic.Value7From3(v2)
	case v1 == v2 && v2 == logic.One3:
		return logic.Stable1
	case v1 == v2:
		return logic.Stable0
	case v2 == logic.One3:
		return logic.Rise7
	default:
		return logic.Fall7
	}
}

// Transitions returns the number of input positions whose value changes
// between V1 and V2.
func (p Pair) Transitions() int {
	n := 0
	for i := range p.V1 {
		if p.V1[i].IsAssigned() && p.V2[i].IsAssigned() && p.V1[i] != p.V2[i] {
			n++
		}
	}
	return n
}

// String renders the pair as "V1 -> V2" bit strings (x for unassigned),
// input 0 leftmost.  The text is built in one allocation of its final size.
func (p Pair) String() string {
	var sb strings.Builder
	sb.Grow(len(p.V1) + len(p.V2) + len(" -> "))
	writeVector(&sb, p.V1)
	sb.WriteString(" -> ")
	writeVector(&sb, p.V2)
	return sb.String()
}

// writeVector writes one character per value: 0, 1 or x.  A code a pattern
// never holds (Conflict3, or one out of range) is written as its lower-cased
// Value3.String.
func writeVector(sb *strings.Builder, v []logic.Value3) {
	for _, x := range v {
		switch x {
		case logic.Zero3:
			sb.WriteByte('0')
		case logic.One3:
			sb.WriteByte('1')
		case logic.X3:
			sb.WriteByte('x')
		default:
			sb.WriteString(strings.ToLower(x.String()))
		}
	}
}

// ParsePair parses the notation produced by String.
func ParsePair(s string) (Pair, error) {
	parts := strings.Split(s, "->")
	if len(parts) != 2 {
		return Pair{}, fmt.Errorf("pattern: missing \"->\" in %q", s)
	}
	v1, err := parseVector(strings.TrimSpace(parts[0]))
	if err != nil {
		return Pair{}, err
	}
	v2, err := parseVector(strings.TrimSpace(parts[1]))
	if err != nil {
		return Pair{}, err
	}
	if len(v1) != len(v2) {
		return Pair{}, fmt.Errorf("pattern: vector lengths differ in %q", s)
	}
	return Pair{V1: v1, V2: v2}, nil
}

func parseVector(s string) ([]logic.Value3, error) {
	out := make([]logic.Value3, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			out[i] = logic.Zero3
		case '1':
			out[i] = logic.One3
		case 'x', 'X':
			out[i] = logic.X3
		default:
			return nil, fmt.Errorf("pattern: invalid character %q in vector %q", s[i], s)
		}
	}
	return out, nil
}

// Set is an ordered collection of test pairs for one circuit.
type Set struct {
	InputNames []string
	Pairs      []Pair
	// Targets optionally records, per pair, a description of the fault the
	// pair was generated for (informational only).
	Targets []string
	// Unfilled, when non-nil, holds one X-preserving pair per test pair: the
	// pair as emitted by the generator before don't-care filling, with every
	// input the test does not constrain left at X.  It is the raw material of
	// static compaction (compatible pairs can only be recognized while the
	// don't-care information is still present).  Either nil (not tracked) or
	// exactly len(Pairs) long.
	Unfilled []Pair
}

// NewSet returns an empty test set for the circuit.
func NewSet(c *circuit.Circuit) *Set {
	names := make([]string, len(c.Inputs()))
	for i, in := range c.Inputs() {
		names[i] = c.NetName(in)
	}
	return &Set{InputNames: names}
}

// Add appends a pair (with an optional target description).
func (s *Set) Add(p Pair, target string) {
	s.Pairs = append(s.Pairs, p)
	s.Targets = append(s.Targets, target)
	if s.Unfilled != nil {
		// A pair added without an explicit unfilled form is its own: every
		// value is treated as specified.
		s.Unfilled = append(s.Unfilled, p)
	}
}

// AddUnfilled appends a pair together with its X-preserving (pre-fill) form
// and switches the set to unfilled tracking if it was not tracking yet.
func (s *Set) AddUnfilled(filled, unfilled Pair, target string) {
	s.trackUnfilled()
	s.Pairs = append(s.Pairs, filled)
	s.Targets = append(s.Targets, target)
	s.Unfilled = append(s.Unfilled, unfilled)
}

// trackUnfilled switches the set to unfilled tracking, backfilling earlier
// pairs with themselves (a fully specified pair is its own unfilled form).
func (s *Set) trackUnfilled() {
	if s.Unfilled != nil {
		return
	}
	s.Unfilled = make([]Pair, len(s.Pairs))
	copy(s.Unfilled, s.Pairs)
}

// UnfilledAt returns the X-preserving form of pair i: the recorded unfilled
// pair when the set tracks them, and the (fully specified) pair itself
// otherwise.
func (s *Set) UnfilledAt(i int) Pair {
	if s.Unfilled != nil && i < len(s.Unfilled) {
		return s.Unfilled[i]
	}
	return s.Pairs[i]
}

// Len returns the number of pairs in the set.
func (s *Set) Len() int { return len(s.Pairs) }

// Append appends every pair of other (with its target description and, when
// tracked by either set, its unfilled form) to s and returns the index the
// first appended pair received.  The pairs themselves are shared, not
// copied; they are treated as immutable after generation.
//
//atpgvet:deterministic
func (s *Set) Append(other *Set) int {
	base := len(s.Pairs)
	if other == nil {
		return base
	}
	if s.Unfilled != nil || other.Unfilled != nil {
		s.trackUnfilled()
		for i := range other.Pairs {
			s.Unfilled = append(s.Unfilled, other.UnfilledAt(i))
		}
	}
	s.Pairs = append(s.Pairs, other.Pairs...)
	for i := range other.Pairs {
		target := ""
		if i < len(other.Targets) {
			target = other.Targets[i]
		}
		s.Targets = append(s.Targets, target)
	}
	return base
}

// Slice returns a new set holding the pairs from index from on (sharing the
// underlying pairs, which are immutable after generation).
func (s *Set) Slice(from int) *Set {
	if from < 0 {
		from = 0
	}
	if from > len(s.Pairs) {
		from = len(s.Pairs)
	}
	out := &Set{InputNames: s.InputNames}
	out.Pairs = append(out.Pairs, s.Pairs[from:]...)
	for i := from; i < len(s.Pairs); i++ {
		target := ""
		if i < len(s.Targets) {
			target = s.Targets[i]
		}
		out.Targets = append(out.Targets, target)
	}
	if s.Unfilled != nil {
		out.Unfilled = append([]Pair{}, s.Unfilled[from:]...)
	}
	return out
}

// Truncate shortens the set to its first n pairs.
func (s *Set) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(s.Pairs) {
		return
	}
	s.Pairs = s.Pairs[:n]
	if n < len(s.Targets) {
		s.Targets = s.Targets[:n]
	}
	if s.Unfilled != nil && n < len(s.Unfilled) {
		s.Unfilled = s.Unfilled[:n]
	}
}

// Write emits the test set in a simple deterministic text format: a header
// line with the input names (omitted when there are none), then one
// "V1 -> V2  # target" line per pair, in pair order, each followed by a
// "#~ unfilled:" annotation when the set tracks an unfilled form that
// differs from the pair.  The output depends only on the set's contents, so
// equal sets always serialize to identical bytes.
//
//atpgvet:deterministic
func (s *Set) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if len(s.InputNames) > 0 {
		fmt.Fprintf(bw, "# inputs: %s\n", strings.Join(s.InputNames, " "))
	}
	for i, p := range s.Pairs {
		target := ""
		if i < len(s.Targets) && s.Targets[i] != "" {
			target = "  # " + sanitizeTarget(s.Targets[i])
		}
		fmt.Fprintf(bw, "%s%s\n", p.String(), target)
		if s.Unfilled != nil && i < len(s.Unfilled) && !samePair(s.Unfilled[i], p) {
			fmt.Fprintf(bw, "#~ unfilled: %s\n", s.Unfilled[i].String())
		}
	}
	return bw.Flush()
}

// sanitizeTarget makes a target description safe for the one-line format.
func sanitizeTarget(t string) string {
	t = strings.ReplaceAll(t, "\n", " ")
	return strings.ReplaceAll(t, "\r", " ")
}

// samePair reports whether two pairs carry identical vectors.
func samePair(a, b Pair) bool {
	if len(a.V1) != len(b.V1) || len(a.V2) != len(b.V2) {
		return false
	}
	for i := range a.V1 {
		if a.V1[i] != b.V1[i] || a.V2[i] != b.V2[i] {
			return false
		}
	}
	return true
}

// Read parses a test set written by Write.  Input names are restored from
// the header and unfilled forms from their "#~ unfilled:" annotations when
// present.
func Read(r io.Reader) (*Set, error) {
	s := &Set{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case strings.HasPrefix(line, "# inputs:") && s.InputNames == nil:
				s.InputNames = strings.Fields(strings.TrimPrefix(line, "# inputs:"))
			case strings.HasPrefix(line, "#~ unfilled:"):
				if len(s.Pairs) == 0 {
					return nil, fmt.Errorf("line %d: unfilled annotation before any pair", lineNo)
				}
				u, err := ParsePair(strings.TrimSpace(strings.TrimPrefix(line, "#~ unfilled:")))
				if err != nil {
					return nil, fmt.Errorf("line %d: %w", lineNo, err)
				}
				s.trackUnfilled()
				s.Unfilled[len(s.Pairs)-1] = u
			}
			continue
		}
		target := ""
		if idx := strings.Index(line, "#"); idx >= 0 {
			target = strings.TrimSpace(line[idx+1:])
			line = strings.TrimSpace(line[:idx])
		}
		p, err := ParsePair(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		s.Pairs = append(s.Pairs, p)
		s.Targets = append(s.Targets, target)
		if s.Unfilled != nil {
			s.Unfilled = append(s.Unfilled, p)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// String renders the whole set.
func (s *Set) String() string {
	var sb strings.Builder
	_ = s.Write(&sb)
	return sb.String()
}
