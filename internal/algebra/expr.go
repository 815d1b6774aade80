// Package algebra implements the quality-extended relational algebra of the
// attribute-based and polygen models: the usual operators (scan, select,
// project, join, union, difference, aggregate, sort, limit) lifted to
// relations whose cells carry quality indicator tags and polygen source
// sets.
//
// Propagation semantics (documented here once, implemented throughout):
//
//   - Cells copied verbatim (projection of a column, either side of a join)
//     keep their tags and source sets unchanged.
//   - Derived cells (computed projection expressions, aggregate results)
//     keep only the tags on which every contributing cell agrees
//     (tag.Intersect) and take the union of contributing source sets, the
//     polygen rule for derived data.
//
// Expressions use SQL-style three-valued logic: comparisons against null
// yield null, AND/OR follow Kleene semantics, and Select keeps a tuple only
// when its predicate is definitely true.
package algebra

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/schema"
	"repro/internal/value"
)

// EvalContext carries query-wide evaluation state.
type EvalContext struct {
	// Now is the query's notion of the current instant, used by AGE() and
	// NOW(). Fixing it per query keeps results deterministic.
	Now time.Time
}

// Expr is a bound-or-bindable expression over a tuple. An Expr is data:
// Compile turns a bound one into its evaluator.
type Expr interface {
	// Bind resolves column and indicator references against the schema.
	// It must be called before Compile.
	Bind(s *schema.Schema) error
	// String renders QQL-compatible syntax.
	String() string
	// Walk visits this node and all children.
	Walk(fn func(Expr))
}

// Const is a literal value.
type Const struct{ V value.Value }

// Bind implements Expr.
func (c *Const) Bind(*schema.Schema) error { return nil }

// String implements Expr.
func (c *Const) String() string { return c.V.Literal() }

// Walk implements Expr.
func (c *Const) Walk(fn func(Expr)) { fn(c) }

// ColRef references an attribute's application value by name.
type ColRef struct {
	Name string
	idx  int
}

// Bind implements Expr.
func (c *ColRef) Bind(s *schema.Schema) error {
	c.idx = s.ColIndex(c.Name)
	if c.idx < 0 {
		return fmt.Errorf("algebra: unknown column %q in %s", c.Name, s.Name)
	}
	return nil
}

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Walk implements Expr.
func (c *ColRef) Walk(fn func(Expr)) { fn(c) }

// Col returns the bound column index, for planner introspection; -1 when
// unbound.
func (c *ColRef) Col() int { return c.idx }

// IndRef references a quality indicator value tagged on a column's cells,
// written col@indicator in QQL. An untagged cell evaluates to null.
type IndRef struct {
	Col       string
	Indicator string
	idx       int
}

// Bind implements Expr.
func (r *IndRef) Bind(s *schema.Schema) error {
	r.idx = s.ColIndex(r.Col)
	if r.idx < 0 {
		return fmt.Errorf("algebra: unknown column %q in %s", r.Col, s.Name)
	}
	return nil
}

// String implements Expr.
func (r *IndRef) String() string { return r.Col + "@" + r.Indicator }

// Walk implements Expr.
func (r *IndRef) Walk(fn func(Expr)) { fn(r) }

// MetaRef references a meta-quality indicator: a tag describing another
// tag's value (Premise 1.4), written col@indicator@meta in QQL. Untagged
// levels evaluate to null.
type MetaRef struct {
	Col       string
	Indicator string
	Meta      string
	idx       int
}

// Bind implements Expr.
func (r *MetaRef) Bind(s *schema.Schema) error {
	r.idx = s.ColIndex(r.Col)
	if r.idx < 0 {
		return fmt.Errorf("algebra: unknown column %q in %s", r.Col, s.Name)
	}
	return nil
}

// String implements Expr.
func (r *MetaRef) String() string { return r.Col + "@" + r.Indicator + "@" + r.Meta }

// Walk implements Expr.
func (r *MetaRef) Walk(fn func(Expr)) { fn(r) }

// SrcContains tests whether a column's polygen source set contains a source,
// written SOURCE(col, 'name') in QQL.
type SrcContains struct {
	Col    string
	Source string
	idx    int
}

// Bind implements Expr.
func (s *SrcContains) Bind(sc *schema.Schema) error {
	s.idx = sc.ColIndex(s.Col)
	if s.idx < 0 {
		return fmt.Errorf("algebra: unknown column %q in %s", s.Col, sc.Name)
	}
	return nil
}

// String implements Expr.
func (s *SrcContains) String() string {
	return "SOURCE(" + s.Col + ", " + value.Str(s.Source).Literal() + ")"
}

// Walk implements Expr.
func (s *SrcContains) Walk(fn func(Expr)) { fn(s) }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var cmpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

// Cmp compares two expressions. Null operands yield null (unknown).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Bind implements Expr.
func (c *Cmp) Bind(s *schema.Schema) error {
	if err := c.L.Bind(s); err != nil {
		return err
	}
	return c.R.Bind(s)
}

// String implements Expr.
func (c *Cmp) String() string {
	return "(" + c.L.String() + " " + cmpNames[c.Op] + " " + c.R.String() + ")"
}

// Walk implements Expr.
func (c *Cmp) Walk(fn func(Expr)) { fn(c); c.L.Walk(fn); c.R.Walk(fn) }

// LogicOp is a boolean connective.
type LogicOp uint8

// Boolean connectives.
const (
	OpAnd LogicOp = iota
	OpOr
)

// Logic combines two boolean expressions with Kleene three-valued AND/OR.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// Bind implements Expr.
func (l *Logic) Bind(s *schema.Schema) error {
	if err := l.L.Bind(s); err != nil {
		return err
	}
	return l.R.Bind(s)
}

func boolOf(v value.Value) (b, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	return v.AsBool(), false
}

// String implements Expr.
func (l *Logic) String() string {
	op := " AND "
	if l.Op == OpOr {
		op = " OR "
	}
	return "(" + l.L.String() + op + l.R.String() + ")"
}

// Walk implements Expr.
func (l *Logic) Walk(fn func(Expr)) { fn(l); l.L.Walk(fn); l.R.Walk(fn) }

// Not negates a boolean expression (null stays null).
type Not struct{ E Expr }

// Bind implements Expr.
func (n *Not) Bind(s *schema.Schema) error { return n.E.Bind(s) }

// String implements Expr.
func (n *Not) String() string { return "(NOT (" + n.E.String() + "))" }

// Walk implements Expr.
func (n *Not) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

var arithNames = [...]string{"+", "-", "*", "/"}

// Arith applies +, -, *, / with the value package's typing rules.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Bind implements Expr.
func (a *Arith) Bind(s *schema.Schema) error {
	if err := a.L.Bind(s); err != nil {
		return err
	}
	return a.R.Bind(s)
}

// String implements Expr.
func (a *Arith) String() string {
	return "(" + a.L.String() + " " + arithNames[a.Op] + " " + a.R.String() + ")"
}

// Walk implements Expr.
func (a *Arith) Walk(fn func(Expr)) { fn(a); a.L.Walk(fn); a.R.Walk(fn) }

// Neg is unary minus.
type Neg struct{ E Expr }

// Bind implements Expr.
func (n *Neg) Bind(s *schema.Schema) error { return n.E.Bind(s) }

// String implements Expr.
func (n *Neg) String() string { return "-(" + n.E.String() + ")" }

// Walk implements Expr.
func (n *Neg) Walk(fn func(Expr)) { fn(n); n.E.Walk(fn) }

// IsNull tests nullness; with Negate it is IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Bind implements Expr.
func (i *IsNull) Bind(s *schema.Schema) error { return i.E.Bind(s) }

// String implements Expr.
func (i *IsNull) String() string {
	if i.Negate {
		return "(" + i.E.String() + " IS NOT NULL)"
	}
	return "(" + i.E.String() + " IS NULL)"
}

// Walk implements Expr.
func (i *IsNull) Walk(fn func(Expr)) { fn(i); i.E.Walk(fn) }

// InList is SQL IN / NOT IN over a literal list.
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

// Bind implements Expr.
func (in *InList) Bind(s *schema.Schema) error {
	if err := in.E.Bind(s); err != nil {
		return err
	}
	for _, e := range in.List {
		if err := e.Bind(s); err != nil {
			return err
		}
	}
	return nil
}

// String implements Expr.
func (in *InList) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	op := " IN ("
	if in.Negate {
		op = " NOT IN ("
	}
	return "(" + in.E.String() + op + strings.Join(parts, ", ") + "))"
}

// Walk implements Expr.
func (in *InList) Walk(fn func(Expr)) {
	fn(in)
	in.E.Walk(fn)
	for _, e := range in.List {
		e.Walk(fn)
	}
}

// Like is SQL LIKE with % (any run) and _ (any single byte) wildcards.
type Like struct {
	E       Expr
	Pattern string
	Negate  bool
}

// Bind implements Expr.
func (l *Like) Bind(s *schema.Schema) error { return l.E.Bind(s) }

// likeMatch implements %/_ glob matching with linear backtracking on %.
func likeMatch(pattern, s string) bool {
	p, q := 0, 0
	starP, starQ := -1, 0
	for q < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[q]):
			p++
			q++
		case p < len(pattern) && pattern[p] == '%':
			starP, starQ = p, q
			p++
		case starP >= 0:
			starQ++
			p, q = starP+1, starQ
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// String implements Expr.
func (l *Like) String() string {
	op := " LIKE "
	if l.Negate {
		op = " NOT LIKE "
	}
	return "(" + l.E.String() + op + value.Str(l.Pattern).Literal() + ")"
}

// Walk implements Expr.
func (l *Like) Walk(fn func(Expr)) { fn(l); l.E.Walk(fn) }

// Call is a builtin scalar function application. Supported functions:
//
//	NOW()            current query instant
//	AGE(t)           NOW() - t, a duration (the paper's derived indicator)
//	LENGTH(s)        string length
//	LOWER(s) UPPER(s)
//	ABS(x)           absolute numeric value
//	YEAR(t)          year of a time
//	COALESCE(a,...)  first non-null argument
type Call struct {
	Name string
	Args []Expr
}

// Bind implements Expr.
func (c *Call) Bind(s *schema.Schema) error {
	if err := c.check(); err != nil {
		return err
	}
	for _, a := range c.Args {
		if err := a.Bind(s); err != nil {
			return err
		}
	}
	return nil
}

// check reports an unknown function name or a wrong argument count.
func (c *Call) check() error {
	name := strings.ToUpper(c.Name)
	arity, ok := builtinArity[name]
	if !ok {
		return fmt.Errorf("algebra: unknown function %q", c.Name)
	}
	if arity >= 0 && len(c.Args) != arity {
		return fmt.Errorf("algebra: %s takes %d argument(s), got %d", name, arity, len(c.Args))
	}
	if arity < 0 && len(c.Args) == 0 {
		return fmt.Errorf("algebra: %s needs at least one argument", name)
	}
	return nil
}

var builtinArity = map[string]int{
	"NOW": 0, "AGE": 1, "LENGTH": 1, "LOWER": 1, "UPPER": 1,
	"ABS": 1, "YEAR": 1, "COALESCE": -1,
}

// unaryBuiltins are the one-argument builtins, by upper-cased name, applied
// to their argument's value when it is not null; each maps null to null.
// Compile resolves one once per expression.
var unaryBuiltins = map[string]func(x value.Value, ctx *EvalContext) (value.Value, error){
	"AGE":    builtinAge,
	"LENGTH": builtinLength,
	"LOWER":  builtinLower,
	"UPPER":  builtinUpper,
	"ABS":    builtinAbs,
	"YEAR":   builtinYear,
}

func builtinAge(x value.Value, ctx *EvalContext) (value.Value, error) {
	if x.Kind() != value.KindTime {
		return value.Null, fmt.Errorf("algebra: AGE wants a time, got %v", x.Kind())
	}
	return value.Duration(ctx.Now.Sub(x.AsTime())), nil
}

func builtinLength(x value.Value, _ *EvalContext) (value.Value, error) {
	if x.Kind() != value.KindString {
		return value.Null, fmt.Errorf("algebra: LENGTH wants a string, got %v", x.Kind())
	}
	return value.Int(int64(len(x.AsString()))), nil
}

func builtinLower(x value.Value, _ *EvalContext) (value.Value, error) {
	if x.Kind() != value.KindString {
		return value.Null, fmt.Errorf("algebra: LOWER wants a string, got %v", x.Kind())
	}
	return value.Str(strings.ToLower(x.AsString())), nil
}

func builtinUpper(x value.Value, _ *EvalContext) (value.Value, error) {
	if x.Kind() != value.KindString {
		return value.Null, fmt.Errorf("algebra: UPPER wants a string, got %v", x.Kind())
	}
	return value.Str(strings.ToUpper(x.AsString())), nil
}

func builtinAbs(x value.Value, _ *EvalContext) (value.Value, error) {
	if !x.Numeric() {
		return value.Null, fmt.Errorf("algebra: ABS wants a number, got %v", x.Kind())
	}
	if x.Kind() == value.KindInt {
		i := x.AsInt()
		if i < 0 {
			i = -i
		}
		return value.Int(i), nil
	}
	f := x.AsFloat()
	if f < 0 {
		f = -f
	}
	return value.Float(f), nil
}

func builtinYear(x value.Value, _ *EvalContext) (value.Value, error) {
	if x.Kind() != value.KindTime {
		return value.Null, fmt.Errorf("algebra: YEAR wants a time, got %v", x.Kind())
	}
	return value.Int(int64(x.AsTime().Year())), nil
}

// String implements Expr.
func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return strings.ToUpper(c.Name) + "(" + strings.Join(parts, ", ") + ")"
}

// Walk implements Expr.
func (c *Call) Walk(fn func(Expr)) {
	fn(c)
	for _, a := range c.Args {
		a.Walk(fn)
	}
}

// ReferencedCols returns the distinct bound column indexes referenced by the
// expression (through ColRef, IndRef and SrcContains nodes), in first-seen
// order. Used to compute derived-cell provenance.
func ReferencedCols(e Expr) []int {
	var out []int
	e.Walk(func(n Expr) {
		idx := -1
		switch v := n.(type) {
		case *ColRef:
			idx = v.idx
		case *IndRef:
			idx = v.idx
		case *MetaRef:
			idx = v.idx
		case *SrcContains:
			idx = v.idx
		}
		// Expressions reference a handful of columns: a linear scan of
		// the output dedupes them cheaper than a map.
		if idx >= 0 && !slices.Contains(out, idx) {
			out = append(out, idx)
		}
	})
	return out
}
