package qql

import (
	"testing"
	"time"

	"repro/internal/value"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("SELECT co_name, employees FROM customer WHERE employees >= 700;")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "co_name"}, {TokPunct, ","},
		{TokIdent, "employees"}, {TokKeyword, "FROM"}, {TokIdent, "customer"},
		{TokKeyword, "WHERE"}, {TokIdent, "employees"}, {TokOp, ">="},
		{TokInt, "700"}, {TokPunct, ";"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%d, %q), want (%d, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestTokenizeLiterals(t *testing.T) {
	toks, err := Tokenize("3 2.5 1e3 'o''brien' t'1991-10-03' d'24h' true")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokInt || toks[0].Val.AsInt() != 3 {
		t.Errorf("int token = %v", toks[0])
	}
	if toks[1].Kind != TokFloat || toks[1].Val.AsFloat() != 2.5 {
		t.Errorf("float token = %v", toks[1])
	}
	if toks[2].Kind != TokFloat || toks[2].Val.AsFloat() != 1000 {
		t.Errorf("exp float token = %v", toks[2])
	}
	if toks[3].Kind != TokString || toks[3].Val.AsString() != "o'brien" {
		t.Errorf("string token = %v", toks[3])
	}
	if toks[4].Kind != TokTime || toks[4].Val.AsTime().Year() != 1991 {
		t.Errorf("time token = %v", toks[4])
	}
	if toks[5].Kind != TokDuration || toks[5].Val.AsDuration() != 24*time.Hour {
		t.Errorf("duration token = %v", toks[5])
	}
	if toks[6].Kind != TokKeyword || toks[6].Text != "TRUE" {
		t.Errorf("true token = %v", toks[6])
	}
}

func TestTokenizeOperatorsAndComments(t *testing.T) {
	toks, err := Tokenize("a = b != c <> d <= e >= f < g > h -- trailing comment\n+ i")
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, tk := range toks {
		if tk.Kind == TokOp {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"=", "!=", "!=", "<=", ">=", "<", ">", "+"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestTokenizeQualityPunctuation(t *testing.T) {
	toks, err := Tokenize("addr@source {creation_time: t'1991-01-02'}")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[1].Text != "@" || toks[2].Text != "SOURCE" {
		t.Errorf("indicator ref tokens = %v", toks[:3])
	}
	if toks[3].Text != "{" || toks[5].Text != ":" {
		t.Errorf("tag block tokens = %v", toks[3:6])
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "!x", "t'not a time'", "d'bogus'", "#"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("token a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("token b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestValueLiteralRoundtripThroughLexer(t *testing.T) {
	vals := []value.Value{
		value.Int(42), value.Float(2.5), value.Str("it's"),
		value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)),
		value.Duration(90 * time.Minute),
	}
	for _, v := range vals {
		toks, err := Tokenize(v.Literal())
		if err != nil {
			t.Errorf("Tokenize(%s): %v", v.Literal(), err)
			continue
		}
		if len(toks) != 2 {
			t.Errorf("Tokenize(%s) = %d tokens", v.Literal(), len(toks))
			continue
		}
		if !value.Equal(toks[0].Val, v) {
			t.Errorf("literal roundtrip %v -> %v", v, toks[0].Val)
		}
	}
}

// TestQuotedLiterals pins doubled-quote escapes, the unterminated-string
// error text and that a literal without an escape costs no allocation.
func TestQuotedLiterals(t *testing.T) {
	for src, want := range map[string]string{
		`''`:           "",
		`''''`:         "'",
		`'a''b''c'`:    "a'b'c",
		`'''x'`:        "'x",
		`'x'''`:        "x'",
		"'two\nlines'": "two\nlines",
		`'Fruit Co'`:   "Fruit Co",
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", src, err)
		}
		if toks[0].Kind != TokString || toks[0].Text != want || toks[0].Val.AsString() != want {
			t.Errorf("Tokenize(%q) = %v, want string %q", src, toks[0], want)
		}
	}
	for src, want := range map[string]string{
		`'abc`:     "qql: line 1: unterminated string",
		`'a''`:     "qql: line 1: unterminated string",
		"x\n'a\nb": "qql: line 2: unterminated string",
	} {
		if _, err := Tokenize(src); err == nil || err.Error() != want {
			t.Errorf("Tokenize(%q) error = %v, want %q", src, err, want)
		}
	}
	lx := NewLexer("")
	if n := testing.AllocsPerRun(100, func() {
		*lx = Lexer{src: `'12 Orchard Rd'`, line: 1, col: 1}
		if tok, err := lx.Next(); err != nil || tok.Text != "12 Orchard Rd" {
			t.Fatalf("Next = %v, %v", tok, err)
		}
	}); n != 0 {
		t.Errorf("lexing an unescaped literal allocates %v times, want 0", n)
	}
}
