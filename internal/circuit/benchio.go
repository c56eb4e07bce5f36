package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"repro/internal/logic"
)

// ParseError is the error type returned by ParseBench for malformed input:
// it records the file (or source name) and, when known, the line the problem
// was found on, and wraps the underlying cause so callers can match it with
// errors.As / errors.Is.
type ParseError struct {
	// File is the name passed to ParseBench (a path for file input).
	File string
	// Line is the 1-based source line of the problem; 0 when the error is
	// not tied to a single line (e.g. an undriven net).
	Line int
	// Err is the underlying cause.
	Err error
}

// Error renders the classical file:line: message form.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s:%d: %v", e.File, e.Line, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.File, e.Err)
}

// Unwrap returns the underlying cause.
func (e *ParseError) Unwrap() error { return e.Err }

// parseErrf wraps a formatted message in a ParseError.
func parseErrf(file string, line int, format string, args ...any) error {
	return &ParseError{File: file, Line: line, Err: fmt.Errorf(format, args...)}
}

// ParseBench reads a circuit in the ISCAS .bench format:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G17)
//	G10 = NAND(G1, G3)
//	G23 = DFF(G10)
//
// D flip-flops are removed: the DFF output becomes a pseudo primary input and
// the DFF data input becomes a pseudo primary output, so the returned circuit
// is purely combinational, exactly as in the paper's experimental setup.
// Gates with a single fanin declared as AND/OR (NAND/NOR) are converted to
// BUF (NOT).  A net name may not contain whitespace: the service's wire
// form of a fault and the tools' status files split on it.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type rawGate struct {
		out    string
		kind   string
		fanin  []string
		isDFF  bool
		lineNo int
	}

	var (
		inputs   []string
		outputs  []string
		raws     []rawGate
		lineNo   int
		scanner  = bufio.NewScanner(r)
		seenOuts = make(map[string]bool)
	)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT"):
			arg, err := parseParenArg(line, "INPUT")
			if err == nil {
				err = checkNetName(arg)
			}
			if err != nil {
				return nil, &ParseError{File: name, Line: lineNo, Err: err}
			}
			inputs = append(inputs, arg)
		case hasPrefixFold(line, "OUTPUT"):
			arg, err := parseParenArg(line, "OUTPUT")
			if err == nil {
				err = checkNetName(arg)
			}
			if err != nil {
				return nil, &ParseError{File: name, Line: lineNo, Err: err}
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, parseErrf(name, lineNo, "expected assignment, got %q", line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close := strings.LastIndex(rhs, ")")
			if open < 0 || close < open {
				return nil, parseErrf(name, lineNo, "malformed gate expression %q", rhs)
			}
			kind := strings.TrimSpace(rhs[:open])
			args := splitArgs(rhs[open+1 : close])
			if out == "" {
				return nil, parseErrf(name, lineNo, "gate with empty output name")
			}
			if err := checkNetName(out); err != nil {
				return nil, &ParseError{File: name, Line: lineNo, Err: err}
			}
			for _, a := range args {
				if err := checkNetName(a); err != nil {
					return nil, &ParseError{File: name, Line: lineNo, Err: err}
				}
			}
			if seenOuts[out] {
				return nil, parseErrf(name, lineNo, "net %q driven twice", out)
			}
			seenOuts[out] = true
			raws = append(raws, rawGate{
				out:    out,
				kind:   kind,
				fanin:  args,
				isDFF:  strings.EqualFold(kind, "DFF"),
				lineNo: lineNo,
			})
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, &ParseError{File: name, Err: err}
	}

	b := NewBuilder(name)
	b.Grow(len(inputs) + len(raws))
	// Primary inputs first, then DFF outputs as pseudo primary inputs.
	for _, in := range inputs {
		b.Input(in)
	}
	dffInputs := make(map[string]string) // DFF output net -> DFF data input net
	for _, rg := range raws {
		if rg.isDFF {
			if len(rg.fanin) != 1 {
				return nil, parseErrf(name, rg.lineNo, "DFF %q must have exactly one input", rg.out)
			}
			b.PseudoInput(rg.out)
			dffInputs[rg.out] = rg.fanin[0]
		}
	}

	// Combinational gates in dependency order.  The .bench format allows
	// forward references, so iterate until fixpoint.
	pendingGates := make([]rawGate, 0, len(raws))
	for _, rg := range raws {
		if !rg.isDFF {
			pendingGates = append(pendingGates, rg)
		}
	}
	var fanin []NetID // reused from gate to gate: the builder copies it
	for len(pendingGates) > 0 {
		progressed := false
		remaining := pendingGates[:0]
		for _, rg := range pendingGates {
			fanin = fanin[:0]
			for _, f := range rg.fanin {
				id, ok := b.byName[f]
				if !ok {
					break
				}
				fanin = append(fanin, id)
			}
			if len(fanin) < len(rg.fanin) {
				remaining = append(remaining, rg)
				continue
			}
			progressed = true
			kind, err := parseBenchKind(rg.kind, len(rg.fanin))
			if err != nil {
				return nil, &ParseError{File: name, Line: rg.lineNo, Err: err}
			}
			b.Gate(rg.out, kind, fanin...)
			if b.Err() != nil {
				return nil, &ParseError{File: name, Line: rg.lineNo, Err: b.Err()}
			}
		}
		if !progressed {
			undefined := map[string]bool{}
			for _, rg := range remaining {
				for _, f := range rg.fanin {
					if _, ok := b.byName[f]; !ok {
						undefined[f] = true
					}
				}
			}
			names := make([]string, 0, len(undefined))
			for n := range undefined {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, parseErrf(name, 0, "undriven or cyclic nets: %s", strings.Join(names, ", "))
		}
		pendingGates = remaining
	}

	// Primary outputs, then DFF data inputs as pseudo primary outputs.
	for _, out := range outputs {
		id, ok := b.byName[out]
		if !ok {
			return nil, parseErrf(name, 0, "OUTPUT(%s) references an undriven net", out)
		}
		b.Output(id)
	}
	dffOuts := make([]string, 0, len(dffInputs))
	for q := range dffInputs {
		dffOuts = append(dffOuts, q)
	}
	sort.Strings(dffOuts)
	for _, q := range dffOuts {
		d := dffInputs[q]
		id, ok := b.byName[d]
		if !ok {
			return nil, parseErrf(name, 0, "DFF %q data input %q is undriven", q, d)
		}
		b.PseudoOutput(id)
	}

	c, err := b.Build()
	if err != nil {
		// Builder errors (duplicate names, no primary inputs, ...) are not
		// tied to a single line, but callers still rely on every ParseBench
		// failure being a *ParseError that names the source.
		return nil, &ParseError{File: name, Err: err}
	}
	return c, nil
}

// ParseBenchString is a convenience wrapper around ParseBench.
func ParseBenchString(name, src string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(src))
}

// WriteBench writes the circuit in .bench format.  Pseudo primary
// inputs/outputs that stand in for removed flip-flops are emitted as regular
// INPUT/OUTPUT statements with a comment noting their origin, so the output
// always describes the combinational circuit that the tools operate on.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	st := c.Stats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates, depth %d\n", st.Inputs, st.Outputs, st.Gates, st.MaxLevel)
	for _, in := range c.Inputs() {
		g := c.Gate(in)
		if g.PseudoInput {
			fmt.Fprintf(bw, "INPUT(%s)  # pseudo input (DFF output)\n", g.Name)
		} else {
			fmt.Fprintf(bw, "INPUT(%s)\n", g.Name)
		}
	}
	for _, out := range c.Outputs() {
		g := c.Gate(out)
		if g.PseudoOutput {
			fmt.Fprintf(bw, "OUTPUT(%s)  # pseudo output (DFF input)\n", g.Name)
		} else {
			fmt.Fprintf(bw, "OUTPUT(%s)\n", g.Name)
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Kind == logic.Input {
			continue
		}
		names := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			names[i] = c.NetName(f)
		}
		switch g.Kind {
		case logic.Const0:
			fmt.Fprintf(bw, "%s = CONST0()\n", g.Name)
		case logic.Const1:
			fmt.Fprintf(bw, "%s = CONST1()\n", g.Name)
		default:
			fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, benchKindName(g.Kind), strings.Join(names, ", "))
		}
	}
	return bw.Flush()
}

// BenchString renders the circuit as a .bench text.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	_ = WriteBench(&sb, c)
	return sb.String()
}

func benchKindName(k logic.Kind) string {
	switch k {
	case logic.Buf:
		return "BUFF"
	case logic.Not:
		return "NOT"
	default:
		return k.String()
	}
}

func parseBenchKind(s string, arity int) (logic.Kind, error) {
	kind, err := logic.ParseKind(s)
	if err != nil {
		return logic.Buf, err
	}
	if arity == 1 {
		// Single-input AND/OR behave as buffers, NAND/NOR as inverters.
		switch kind {
		case logic.And, logic.Or, logic.Xor:
			return logic.Buf, nil
		case logic.Nand, logic.Nor, logic.Xnor:
			return logic.Not, nil
		}
	}
	if arity == 0 && kind != logic.Const0 && kind != logic.Const1 {
		return logic.Buf, fmt.Errorf("gate kind %v needs at least one input", kind)
	}
	return kind, nil
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

func parseParenArg(line, keyword string) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") {
		return "", fmt.Errorf("malformed %s statement %q", keyword, line)
	}
	close := strings.Index(rest, ")")
	if close < 0 {
		return "", fmt.Errorf("missing ')' in %s statement %q", keyword, line)
	}
	arg := strings.TrimSpace(rest[1:close])
	if arg == "" {
		return "", fmt.Errorf("empty net name in %s statement %q", keyword, line)
	}
	return arg, nil
}

// checkNetName refuses a net name that contains whitespace.
func checkNetName(n string) error {
	if strings.IndexFunc(n, unicode.IsSpace) >= 0 {
		return fmt.Errorf("net name %q contains whitespace", n)
	}
	return nil
}

func splitArgs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
