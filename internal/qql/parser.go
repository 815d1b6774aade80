package qql

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/storage"
	"repro/internal/value"
)

// Parser is a recursive-descent parser over the lexer's token stream with
// one token of lookahead.
type Parser struct {
	lx  *Lexer
	cur Token
}

// NewParser returns a parser over src, primed with the first token.
func NewParser(src string) (*Parser, error) {
	p := &Parser{lx: NewLexer(src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	return p, nil
}

// Parse parses all statements in a script (semicolon separated).
func Parse(src string) ([]Stmt, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for {
		for p.isPunct(";") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if p.cur.Kind == TokEOF {
			return out, nil
		}
		s, err := p.Statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.isPunct(";") && p.cur.Kind != TokEOF {
			return nil, p.errf("expected ';' or end of input, got %q", p.cur.Text)
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Stmt, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("qql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

func (p *Parser) next() error {
	t, err := p.lx.Next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("qql: line %d col %d: %s", p.cur.Line, p.cur.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) isKeyword(k string) bool {
	return p.cur.Kind == TokKeyword && p.cur.Text == k
}

func (p *Parser) isPunct(s string) bool {
	return p.cur.Kind == TokPunct && p.cur.Text == s
}

// peekPunct reports whether the token after the current one is the
// punctuation s, consuming nothing.
func (p *Parser) peekPunct(s string) bool {
	saved := *p.lx
	t, err := p.lx.Next()
	*p.lx = saved
	return err == nil && t.Kind == TokPunct && t.Text == s
}

func (p *Parser) isOp(s string) bool {
	return p.cur.Kind == TokOp && p.cur.Text == s
}

func (p *Parser) acceptKeyword(k string) (bool, error) {
	if p.isKeyword(k) {
		return true, p.next()
	}
	return false, nil
}

func (p *Parser) expectKeyword(k string) error {
	if !p.isKeyword(k) {
		return p.errf("expected %s, got %q", k, p.cur.Text)
	}
	return p.next()
}

func (p *Parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return p.errf("expected %q, got %q", s, p.cur.Text)
	}
	return p.next()
}

// softKeywords may double as plain identifiers in name positions; most
// importantly SOURCE, because "source" is the paper's canonical quality
// indicator name.
var softKeywords = map[string]bool{
	"SOURCE": true, "QUALITY": true, "KEY": true, "TABLES": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"HASH": true, "BTREE": true, "STRICT": true, "REQUIRED": true,
	"ANALYZE": true, "STATS": true,
}

// ident accepts an identifier, or a soft keyword used as a name (returned
// in its original spelling).
func (p *Parser) ident() (string, error) {
	if p.cur.Kind == TokIdent {
		name := p.cur.Text
		return name, p.next()
	}
	if p.cur.Kind == TokKeyword && softKeywords[p.cur.Text] {
		name := p.cur.Val.AsString()
		return name, p.next()
	}
	return "", p.errf("expected identifier, got %q", p.cur.Text)
}

// Statement parses a single statement by its leading keyword.
func (p *Parser) Statement() (Stmt, error) {
	switch {
	case p.isKeyword("CREATE"):
		return p.createStmt()
	case p.isKeyword("DROP"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Table: name}, nil
	case p.isKeyword("INSERT"):
		return p.insertStmt()
	case p.isKeyword("SELECT"):
		return p.selectStmt()
	case p.isKeyword("EXPLAIN"):
		if err := p.next(); err != nil {
			return nil, err
		}
		analyze := false
		if p.isKeyword("ANALYZE") {
			analyze = true
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Sel: sel.(*SelectStmt), Analyze: analyze}, nil
	case p.isKeyword("DELETE"):
		return p.deleteStmt()
	case p.isKeyword("UPDATE"):
		return p.updateStmt()
	case p.isKeyword("SHOW"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.isKeyword("TAGS") {
			if err := p.next(); err != nil {
				return nil, err
			}
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ShowTagsStmt{Table: name}, nil
		}
		if p.isKeyword("STATS") {
			if err := p.next(); err != nil {
				return nil, err
			}
			return &ShowStatsStmt{}, nil
		}
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return &ShowTablesStmt{}, nil
	case p.isKeyword("TAG"):
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.isPunct("@") {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		tags, err := p.tagBlock()
		if err != nil {
			return nil, err
		}
		return &TagTableStmt{Table: name, Tags: tags}, nil
	case p.isKeyword("DESCRIBE"):
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DescribeStmt{Table: name}, nil
	}
	return nil, p.errf("expected a statement, got %q", p.cur.Text)
}

func (p *Parser) createStmt() (Stmt, error) {
	if err := p.next(); err != nil { // CREATE
		return nil, err
	}
	switch {
	case p.isKeyword("TABLE"):
		return p.createTable()
	case p.isKeyword("INDEX"):
		return p.createIndex()
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *Parser) createTable() (Stmt, error) {
	if err := p.next(); err != nil { // TABLE
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		col, err := p.colDef()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if ok, err := p.acceptKeyword("KEY"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			k, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Key = append(st.Key, k)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if ok, err := p.acceptKeyword("STRICT"); err != nil {
		return nil, err
	} else if ok {
		st.Strict = true
	}
	return st, nil
}

func (p *Parser) colDef() (ColDef, error) {
	var cd ColDef
	name, err := p.ident()
	if err != nil {
		return cd, err
	}
	cd.Name = name
	if p.cur.Kind != TokIdent {
		return cd, p.errf("expected type name, got %q", p.cur.Text)
	}
	kind, err := value.ParseKind(p.cur.Text)
	if err != nil {
		return cd, p.errf("%v", err)
	}
	cd.Kind = kind
	if err := p.next(); err != nil {
		return cd, err
	}
	if ok, err := p.acceptKeyword("REQUIRED"); err != nil {
		return cd, err
	} else if ok {
		cd.Required = true
	}
	if ok, err := p.acceptKeyword("QUALITY"); err != nil {
		return cd, err
	} else if ok {
		if err := p.expectPunct("("); err != nil {
			return cd, err
		}
		for {
			iname, err := p.ident()
			if err != nil {
				return cd, err
			}
			if p.cur.Kind != TokIdent {
				return cd, p.errf("expected indicator type, got %q", p.cur.Text)
			}
			ikind, err := value.ParseKind(p.cur.Text)
			if err != nil {
				return cd, p.errf("%v", err)
			}
			if err := p.next(); err != nil {
				return cd, err
			}
			cd.Indicators = append(cd.Indicators, IndDef{Name: iname, Kind: ikind})
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return cd, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return cd, err
		}
	}
	return cd, nil
}

func (p *Parser) createIndex() (Stmt, error) {
	if err := p.next(); err != nil { // INDEX
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	attr, err := p.ident()
	if err != nil {
		return nil, err
	}
	target := storage.IndexTarget{Attr: attr}
	if p.isPunct("@") {
		if err := p.next(); err != nil {
			return nil, err
		}
		ind, err := p.ident()
		if err != nil {
			return nil, err
		}
		target.Indicator = ind
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	kind := storage.IndexBTree
	if ok, err := p.acceptKeyword("USING"); err != nil {
		return nil, err
	} else if ok {
		switch {
		case p.isKeyword("HASH"):
			kind = storage.IndexHash
		case p.isKeyword("BTREE"):
			kind = storage.IndexBTree
		default:
			return nil, p.errf("expected HASH or BTREE")
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	return &CreateIndexStmt{Table: table, Target: target, Kind: kind}, nil
}

func (p *Parser) insertStmt() (Stmt, error) {
	if err := p.next(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []InsertCell
		for {
			cell, err := p.insertCell()
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	return st, nil
}

// insertCell parses expr [@ {ind: expr, ...}] [SOURCE 'a', 'b'].
func (p *Parser) insertCell() (InsertCell, error) {
	var c InsertCell
	e, err := p.Expr()
	if err != nil {
		return c, err
	}
	c.Expr = e
	if p.isPunct("@") {
		if err := p.next(); err != nil {
			return c, err
		}
		tags, err := p.tagBlock()
		if err != nil {
			return c, err
		}
		c.Tags = tags
	}
	if p.isKeyword("SOURCE") {
		if err := p.next(); err != nil {
			return c, err
		}
		// Either a single string, or a parenthesized list: SOURCE ('a',
		// 'b'). The parentheses avoid ambiguity with the comma that
		// separates row cells.
		if p.isPunct("(") {
			if err := p.next(); err != nil {
				return c, err
			}
			for {
				if p.cur.Kind != TokString {
					return c, p.errf("expected source name string")
				}
				c.Sources = append(c.Sources, p.cur.Text)
				if err := p.next(); err != nil {
					return c, err
				}
				if p.isPunct(",") {
					if err := p.next(); err != nil {
						return c, err
					}
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return c, err
			}
		} else {
			if p.cur.Kind != TokString {
				return c, p.errf("expected source name string")
			}
			c.Sources = append(c.Sources, p.cur.Text)
			if err := p.next(); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

// tagBlock parses {ind: expr [@ {meta: expr, ...}], ...}. The optional
// nested block records meta-quality for the indicator (Premise 1.4).
func (p *Parser) tagBlock() ([]TagAssign, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []TagAssign
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		ta := TagAssign{Name: name, Expr: e}
		if p.isPunct("@") {
			if err := p.next(); err != nil {
				return nil, err
			}
			meta, err := p.tagBlock()
			if err != nil {
				return nil, err
			}
			for _, m := range meta {
				if len(m.Meta) > 0 {
					return nil, p.errf("meta-quality nests only one level")
				}
			}
			ta.Meta = meta
		}
		out = append(out, ta)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) selectStmt() (Stmt, error) {
	if err := p.next(); err != nil { // SELECT
		return nil, err
	}
	st := &SelectStmt{Limit: -1}
	if ok, err := p.acceptKeyword("DISTINCT"); err != nil {
		return nil, err
	} else if ok {
		st.Distinct = true
	}
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	ref, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = ref
	for p.isKeyword("JOIN") {
		if err := p.next(); err != nil {
			return nil, err
		}
		jref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Ref: jref, On: on})
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if ok, err := p.acceptKeyword("WITH"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("QUALITY"); err != nil {
			return nil, err
		}
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Quality = e
	}
	if ok, err := p.acceptKeyword("GROUP"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if ok, err := p.acceptKeyword("ORDER"); err != nil {
		return nil, err
	} else if ok {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if ok, err := p.acceptKeyword("DESC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = true
			} else if ok, err := p.acceptKeyword("ASC"); err != nil {
				return nil, err
			} else if ok {
				item.Desc = false
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if ok, err := p.acceptKeyword("LIMIT"); err != nil {
		return nil, err
	} else if ok {
		if p.cur.Kind != TokInt {
			return nil, p.errf("expected integer after LIMIT")
		}
		st.Limit = int(p.cur.Val.AsInt())
		if err := p.next(); err != nil {
			return nil, err
		}
		if ok, err := p.acceptKeyword("OFFSET"); err != nil {
			return nil, err
		} else if ok {
			if p.cur.Kind != TokInt {
				return nil, p.errf("expected integer after OFFSET")
			}
			st.Offset = int(p.cur.Val.AsInt())
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func (p *Parser) selectItem() (SelectItem, error) {
	var item SelectItem
	if p.isPunct("*") {
		item.Star = true
		return item, p.next()
	}
	if p.cur.Kind == TokKeyword {
		switch p.cur.Text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			fn := map[string]algebra.AggFunc{
				"COUNT": algebra.AggCount, "SUM": algebra.AggSum, "AVG": algebra.AggAvg,
				"MIN": algebra.AggMin, "MAX": algebra.AggMax,
			}[p.cur.Text]
			if err := p.next(); err != nil {
				return item, err
			}
			if err := p.expectPunct("("); err != nil {
				return item, err
			}
			agg := &AggItem{Fn: fn}
			if p.isPunct("*") {
				if fn != algebra.AggCount {
					return item, p.errf("only COUNT accepts *")
				}
				if err := p.next(); err != nil {
					return item, err
				}
			} else {
				arg, err := p.Expr()
				if err != nil {
					return item, err
				}
				agg.Arg = arg
			}
			if err := p.expectPunct(")"); err != nil {
				return item, err
			}
			item.Agg = agg
			if ok, err := p.acceptKeyword("AS"); err != nil {
				return item, err
			} else if ok {
				as, err := p.ident()
				if err != nil {
					return item, err
				}
				item.As = as
			}
			return item, nil
		}
	}
	e, err := p.Expr()
	if err != nil {
		return item, err
	}
	item.Expr = e
	if ok, err := p.acceptKeyword("AS"); err != nil {
		return item, err
	} else if ok {
		as, err := p.ident()
		if err != nil {
			return item, err
		}
		item.As = as
	}
	return item, nil
}

func (p *Parser) tableRef() (TableRef, error) {
	var ref TableRef
	name, err := p.ident()
	if err != nil {
		return ref, err
	}
	ref.Table = name
	ref.Alias = name
	if p.cur.Kind == TokIdent {
		alias, err := p.ident()
		if err != nil {
			return ref, err
		}
		ref.Alias = alias
	}
	return ref, nil
}

func (p *Parser) deleteStmt() (Stmt, error) {
	if err := p.next(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *Parser) updateStmt() (Stmt, error) {
	if err := p.next(); err != nil { // UPDATE
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		sc := SetClause{Col: col}
		if p.isOp("=") {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			sc.Expr = e
		}
		if p.isPunct("@") {
			if err := p.next(); err != nil {
				return nil, err
			}
			tags, err := p.tagBlock()
			if err != nil {
				return nil, err
			}
			sc.Tags = tags
		}
		if sc.Expr == nil && sc.Tags == nil {
			return nil, p.errf("SET %s assigns neither value nor tags", col)
		}
		st.Sets = append(st.Sets, sc)
		if p.isPunct(",") {
			if err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if ok, err := p.acceptKeyword("WHERE"); err != nil {
		return nil, err
	} else if ok {
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// ---- Expression grammar ----
// Expr       := orExpr
// orExpr     := andExpr (OR andExpr)*
// andExpr    := notExpr (AND notExpr)*
// notExpr    := NOT notExpr | predicate
// predicate  := additive [cmpOp additive | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE 'pat']
// additive   := multiplicative ((+|-) multiplicative)*
// multiplicative := unary ((*|/) unary)*
// unary      := - unary | primary
// primary    := literal | ref | call | ( Expr )

// Expr parses a full expression.
func (p *Parser) Expr() (algebra.Expr, error) {
	return p.orExpr()
}

func (p *Parser) orExpr() (algebra.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &algebra.Logic{Op: algebra.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) andExpr() (algebra.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &algebra.Logic{Op: algebra.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) notExpr() (algebra.Expr, error) {
	if p.isKeyword("NOT") {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &algebra.Not{E: e}, nil
	}
	return p.predicate()
}

var cmpOps = map[string]algebra.CmpOp{
	"=": algebra.OpEq, "!=": algebra.OpNe, "<": algebra.OpLt,
	"<=": algebra.OpLe, ">": algebra.OpGt, ">=": algebra.OpGe,
}

func (p *Parser) predicate() (algebra.Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	if p.cur.Kind == TokOp {
		if op, ok := cmpOps[p.cur.Text]; ok {
			if err := p.next(); err != nil {
				return nil, err
			}
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			return &algebra.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	if p.isKeyword("IS") {
		if err := p.next(); err != nil {
			return nil, err
		}
		neg := false
		if ok, err := p.acceptKeyword("NOT"); err != nil {
			return nil, err
		} else if ok {
			neg = true
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &algebra.IsNull{E: l, Negate: neg}, nil
	}
	neg := false
	if p.isKeyword("NOT") {
		// NOT IN / NOT LIKE
		save := p.cur
		if err := p.next(); err != nil {
			return nil, err
		}
		if !p.isKeyword("IN") && !p.isKeyword("LIKE") {
			return nil, fmt.Errorf("qql: line %d: unexpected NOT", save.Line)
		}
		neg = true
	}
	if p.isKeyword("IN") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []algebra.Expr
		for {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.isPunct(",") {
				if err := p.next(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &algebra.InList{E: l, List: list, Negate: neg}, nil
	}
	if p.isKeyword("LIKE") {
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.cur.Kind != TokString {
			return nil, p.errf("expected pattern string after LIKE")
		}
		pat := p.cur.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &algebra.Like{E: l, Pattern: pat, Negate: neg}, nil
	}
	return l, nil
}

func (p *Parser) additive() (algebra.Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for p.isOp("+") || p.isOp("-") {
		op := algebra.OpAdd
		if p.cur.Text == "-" {
			op = algebra.OpSub
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = &algebra.Arith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) multiplicative() (algebra.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.isPunct("*") || p.isOp("/") {
		op := algebra.OpMul
		if p.cur.Kind == TokOp && p.cur.Text == "/" {
			op = algebra.OpDiv
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &algebra.Arith{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) unary() (algebra.Expr, error) {
	if p.isOp("-") {
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		// Fold negation of numeric literals.
		if c, ok := e.(*algebra.Const); ok && c.V.Numeric() {
			v, err := value.Neg(c.V)
			if err == nil {
				return &algebra.Const{V: v}, nil
			}
		}
		return &algebra.Neg{E: e}, nil
	}
	return p.primary()
}

func (p *Parser) primary() (algebra.Expr, error) {
	switch p.cur.Kind {
	case TokInt, TokFloat, TokString, TokTime, TokDuration:
		v := p.cur.Val
		return &algebra.Const{V: v}, p.next()
	case TokKeyword:
		switch p.cur.Text {
		case "TRUE":
			return &algebra.Const{V: value.Bool(true)}, p.next()
		case "FALSE":
			return &algebra.Const{V: value.Bool(false)}, p.next()
		case "NULL":
			return &algebra.Const{V: value.Null}, p.next()
		case "SOURCE":
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			col, err := p.qualifiedName()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
			if p.cur.Kind != TokString {
				return nil, p.errf("expected source name string")
			}
			src := p.cur.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &algebra.SrcContains{Col: col, Source: src}, nil
		case "MIN", "MAX", "COUNT", "SUM", "AVG":
			return nil, p.errf("aggregate %s is only allowed as a top-level select item", p.cur.Text)
		}
		return nil, p.errf("unexpected keyword %q in expression", p.cur.Text)
	case TokPunct:
		if p.cur.Text == "(" {
			if err := p.next(); err != nil {
				return nil, err
			}
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", p.cur.Text)
	case TokIdent:
		name := p.cur.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		// Function call?
		if p.isPunct("(") {
			if err := p.next(); err != nil {
				return nil, err
			}
			var args []algebra.Expr
			if !p.isPunct(")") {
				for {
					a, err := p.Expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.isPunct(",") {
						if err := p.next(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &algebra.Call{Name: strings.ToUpper(name), Args: args}, nil
		}
		// Qualified: name.attr
		full := name
		if p.isPunct(".") {
			if err := p.next(); err != nil {
				return nil, err
			}
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			full = name + "." + attr
		}
		// Indicator ref: col@indicator, or meta ref: col@indicator@meta.
		// An @ followed by { opens the enclosing cell's tag block, so it
		// is left for tagBlock's caller.
		if p.isPunct("@") && !p.peekPunct("{") {
			if err := p.next(); err != nil {
				return nil, err
			}
			ind, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.isPunct("@") && !p.peekPunct("{") {
				if err := p.next(); err != nil {
					return nil, err
				}
				meta, err := p.ident()
				if err != nil {
					return nil, err
				}
				return &algebra.MetaRef{Col: full, Indicator: ind, Meta: meta}, nil
			}
			return &algebra.IndRef{Col: full, Indicator: ind}, nil
		}
		return &algebra.ColRef{Name: full}, nil
	default: // TokEOF, TokOp: neither can begin a primary expression
		return nil, p.errf("unexpected token %q in expression", p.cur.Text)
	}
}

// qualifiedName parses ident(.ident)? and returns the dotted form.
func (p *Parser) qualifiedName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.isPunct(".") {
		if err := p.next(); err != nil {
			return "", err
		}
		attr, err := p.ident()
		if err != nil {
			return "", err
		}
		return name + "." + attr, nil
	}
	return name, nil
}
