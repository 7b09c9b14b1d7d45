package fxc

import (
	"fmt"
	"strconv"
	"strings"
)

// The text front-end accepts a miniature HPF-like dialect, one statement
// per line:
//
//	array  a(512,512) real*8 block(rows)
//	array  c(512,512) real*8 block(cols)
//	array  in(64,64)  real*8 serial
//	assign c(i,j) = a(i,j)
//	assign a(i,j) = a(i-1,j)
//	assign a(i,j) = in(i,j)
//	reduce a 2048
//
// Comments start with '!' (Fortran style) or '#'. Subscripts are the
// affine forms i, j, i±c, j±c, or a constant.

// Program is a parsed mini-HPF program: declarations plus statements.
type Program struct {
	Arrays map[string]*Array
	// Stmts holds Assign and Reduce values in source order.
	Stmts []any
	// Texts holds the source line of each statement, for reporting.
	Texts []string
}

// ParseProgram parses the mini-HPF dialect.
func ParseProgram(src string) (*Program, error) {
	p := &Program{Arrays: make(map[string]*Array)}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "!#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case "array":
			err = p.parseArray(fields[1:])
		case "assign":
			err = p.parseAssign(strings.TrimSpace(strings.TrimPrefix(line, "assign")), line)
		case "reduce":
			err = p.parseReduce(fields[1:], line)
		default:
			err = fmt.Errorf("unknown keyword %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("fxc: line %d: %w", lineNo+1, err)
		}
	}
	return p, nil
}

// parseArray handles: name(rows,cols) type dist
func (p *Program) parseArray(fields []string) error {
	if len(fields) != 3 {
		return fmt.Errorf("array wants 'name(r,c) type dist', got %v", fields)
	}
	name, rows, cols, err := parseShape(fields[0])
	if err != nil {
		return err
	}
	if _, dup := p.Arrays[name]; dup {
		return fmt.Errorf("array %q redeclared", name)
	}
	elem, err := parseType(fields[1])
	if err != nil {
		return err
	}
	dist, err := parseDist(fields[2])
	if err != nil {
		return err
	}
	p.Arrays[name] = &Array{Name: name, Rows: rows, Cols: cols, Dist: dist, ElemBytes: elem}
	return nil
}

func parseShape(tok string) (name string, rows, cols int, err error) {
	open := strings.IndexByte(tok, '(')
	if open <= 0 || !strings.HasSuffix(tok, ")") {
		return "", 0, 0, fmt.Errorf("bad shape %q", tok)
	}
	name = tok[:open]
	dims := strings.Split(tok[open+1:len(tok)-1], ",")
	if len(dims) != 2 {
		return "", 0, 0, fmt.Errorf("array %q must be two-dimensional", name)
	}
	rows, err = strconv.Atoi(strings.TrimSpace(dims[0]))
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad rows in %q", tok)
	}
	cols, err = strconv.Atoi(strings.TrimSpace(dims[1]))
	if err != nil {
		return "", 0, 0, fmt.Errorf("bad cols in %q", tok)
	}
	return name, rows, cols, nil
}

func parseType(tok string) (int, error) {
	switch strings.ToLower(tok) {
	case "real*4", "integer*4":
		return 4, nil
	case "real*8", "complex*8", "integer*8":
		return 8, nil
	case "complex*16":
		return 16, nil
	default:
		return 0, fmt.Errorf("unknown type %q", tok)
	}
}

func parseDist(tok string) (Dist, error) {
	switch strings.ToLower(tok) {
	case "block(rows)":
		return DistRows, nil
	case "block(cols)":
		return DistCols, nil
	case "serial":
		return DistSerial, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q (want block(rows), block(cols), serial)", tok)
	}
}

// parseAssign handles: lhs(i,j) = rhs(rsub,csub)
func (p *Program) parseAssign(rest, full string) error {
	lhsTok, rhsTok, ok := strings.Cut(rest, "=")
	if !ok {
		return fmt.Errorf("assign needs '='")
	}
	lhsName, li, lj, err := parseRef(strings.TrimSpace(lhsTok))
	if err != nil {
		return err
	}
	if li != (Affine{CI: 1}) || lj != (Affine{CJ: 1}) {
		return fmt.Errorf("left-hand side must be name(i,j)")
	}
	rhsName, ri, rj, err := parseRef(strings.TrimSpace(rhsTok))
	if err != nil {
		return err
	}
	lhs, ok := p.Arrays[lhsName]
	if !ok {
		return fmt.Errorf("undeclared array %q", lhsName)
	}
	rhs, ok := p.Arrays[rhsName]
	if !ok {
		return fmt.Errorf("undeclared array %q", rhsName)
	}
	p.Stmts = append(p.Stmts, Assign{LHS: lhs, RHS: rhs, RowSub: ri, ColSub: rj})
	p.Texts = append(p.Texts, full)
	return nil
}

// parseRef handles name(sub,sub).
func parseRef(tok string) (name string, row, col Affine, err error) {
	open := strings.IndexByte(tok, '(')
	if open <= 0 || !strings.HasSuffix(tok, ")") {
		return "", Affine{}, Affine{}, fmt.Errorf("bad reference %q", tok)
	}
	name = tok[:open]
	subs := strings.Split(tok[open+1:len(tok)-1], ",")
	if len(subs) != 2 {
		return "", Affine{}, Affine{}, fmt.Errorf("reference %q needs two subscripts", tok)
	}
	row, err = parseAffine(strings.TrimSpace(subs[0]))
	if err != nil {
		return "", Affine{}, Affine{}, err
	}
	col, err = parseAffine(strings.TrimSpace(subs[1]))
	return name, row, col, err
}

// parseAffine handles i, j, i±c, j±c, and plain constants.
func parseAffine(tok string) (Affine, error) {
	if tok == "" {
		return Affine{}, fmt.Errorf("empty subscript")
	}
	var a Affine
	rest := tok
	switch {
	case strings.HasPrefix(rest, "i"):
		a.CI = 1
		rest = rest[1:]
	case strings.HasPrefix(rest, "j"):
		a.CJ = 1
		rest = rest[1:]
	}
	if rest == "" {
		return a, nil
	}
	if a.CI == 0 && a.CJ == 0 {
		c, err := strconv.Atoi(rest)
		if err != nil {
			return Affine{}, fmt.Errorf("bad subscript %q", tok)
		}
		a.C0 = c
		return a, nil
	}
	c, err := strconv.Atoi(rest)
	if err != nil || (rest[0] != '+' && rest[0] != '-') {
		return Affine{}, fmt.Errorf("bad subscript offset %q", tok)
	}
	return a.Shifted(c), nil
}

// parseReduce handles: reduce name bytes
func (p *Program) parseReduce(fields []string, full string) error {
	if len(fields) != 2 {
		return fmt.Errorf("reduce wants 'name bytes'")
	}
	arr, ok := p.Arrays[fields[0]]
	if !ok {
		return fmt.Errorf("undeclared array %q", fields[0])
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n <= 0 {
		return fmt.Errorf("bad reduction size %q", fields[1])
	}
	p.Stmts = append(p.Stmts, Reduce{Src: arr, ResultBytes: n})
	p.Texts = append(p.Texts, full)
	return nil
}

// CompileAll compiles every statement for P processors, in order.
func (p *Program) CompileAll(P int) []*Schedule {
	out := make([]*Schedule, len(p.Stmts))
	for i, st := range p.Stmts {
		switch s := st.(type) {
		case Assign:
			out[i] = CompileAssign(s, P)
		case Reduce:
			out[i] = CompileReduce(s, P)
		default:
			panic(fmt.Sprintf("fxc: unknown statement %T", st))
		}
	}
	return out
}
