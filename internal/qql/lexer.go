// Package qql implements QQL, the Quality Query Language: a small SQL
// dialect extended with the quality constructs the paper calls for — cell
// tags written at insert time, indicator references (col@indicator) in
// expressions, polygen source predicates (SOURCE(col, 'name')), and a
// dedicated WITH QUALITY clause separating data-quality requirements from
// application predicates so that "at query time users can retrieve data of
// specific quality" (paper §1.3).
//
// The package provides the lexer, recursive-descent parser, a rule-based
// planner with index pushdown over attribute and indicator values, and a
// Session tying statements to a storage.Catalog.
package qql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/value"
)

// TokKind classifies lexical tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokTime
	TokDuration
	TokPunct // ( ) , ; @ { } : . *
	TokOp    // = != < <= > >= + - / %
)

// Token is one lexical token with its source position (1-based line/col).
type Token struct {
	Kind TokKind
	Text string
	Val  value.Value // literal payload for Int/Float/String/Time/Duration
	Line int
	Col  int
}

// keywords recognized by the lexer; matched case-insensitively, normalized
// to upper case in Token.Text.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "WITH": true,
	"QUALITY": true, "GROUP": true, "BY": true, "ORDER": true, "ASC": true,
	"DESC": true, "LIMIT": true, "OFFSET": true, "JOIN": true, "ON": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "IN": true, "IS": true,
	"NULL": true, "LIKE": true, "TRUE": true, "FALSE": true,
	"CREATE": true, "DROP": true, "TABLE": true, "INDEX": true, "USING": true, "HASH": true,
	"BTREE": true, "KEY": true, "REQUIRED": true, "STRICT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "SOURCE": true,
	"DELETE": true, "UPDATE": true, "SET": true,
	"EXPLAIN": true, "SHOW": true, "TABLES": true, "DESCRIBE": true,
	"TAG": true, "TAGS": true, "ANALYZE": true, "STATS": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"UNION": true, "EXCEPT": true, "ALL": true,
}

// keywordCodes maps each keyword, packed by packUpper, to its spelling, so
// the lexer matches a word without allocating its upper-case copy.
var keywordCodes = func() map[uint64]string {
	m := make(map[uint64]string, len(keywords))
	for k := range keywords {
		if len(k) > 8 {
			panic("qql: keyword longer than eight letters: " + k)
		}
		m[packUpper(k)] = k
	}
	return m
}()

// packUpper packs an identifier of at most eight letters, upper-cased, one
// byte per letter; a longer one packs to 0, which no keyword does.
func packUpper(word string) uint64 {
	if len(word) > 8 {
		return 0
	}
	var code uint64
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		code = code<<8 | uint64(c)
	}
	return code
}

// Lexer turns QQL source into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	tok := Token{Line: l.line, Col: l.col}
	if l.pos >= len(l.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.pos]
		// t'...' and d'...' literals.
		if (word == "t" || word == "T" || word == "d" || word == "D") && l.peek() == '\'' {
			body, err := l.quoted()
			if err != nil {
				return tok, err
			}
			if word == "t" || word == "T" {
				v, err := value.Parse(value.KindTime, body)
				if err != nil {
					return tok, fmt.Errorf("qql: line %d: %v", tok.Line, err)
				}
				tok.Kind, tok.Text, tok.Val = TokTime, body, v
				return tok, nil
			}
			v, err := value.Parse(value.KindDuration, body)
			if err != nil {
				return tok, fmt.Errorf("qql: line %d: %v", tok.Line, err)
			}
			tok.Kind, tok.Text, tok.Val = TokDuration, body, v
			return tok, nil
		}
		if up, ok := keywordCodes[packUpper(word)]; ok {
			// Keep the original spelling in Val so soft keywords can be
			// used as plain identifiers (e.g. an indicator named
			// "source").
			tok.Kind, tok.Text, tok.Val = TokKeyword, up, value.Str(word)
			return tok, nil
		}
		tok.Kind, tok.Text = TokIdent, word
		return tok, nil

	case isDigit(c):
		start := l.pos
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		isFloat := false
		if l.peek() == '.' && isDigit(l.peek2()) {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			save := l.pos
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			if isDigit(l.peek()) {
				isFloat = true
				for l.pos < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			} else {
				l.pos = save
			}
		}
		text := l.src[start:l.pos]
		if isFloat {
			v, err := value.Parse(value.KindFloat, text)
			if err != nil {
				return tok, fmt.Errorf("qql: line %d: bad float %q", tok.Line, text)
			}
			tok.Kind, tok.Text, tok.Val = TokFloat, text, v
			return tok, nil
		}
		v, err := value.Parse(value.KindInt, text)
		if err != nil {
			return tok, fmt.Errorf("qql: line %d: bad int %q", tok.Line, text)
		}
		tok.Kind, tok.Text, tok.Val = TokInt, text, v
		return tok, nil

	case c == '\'':
		body, err := l.quoted()
		if err != nil {
			return tok, err
		}
		tok.Kind, tok.Text, tok.Val = TokString, body, value.Str(body)
		return tok, nil

	case strings.IndexByte("(),;@{}:.*", c) >= 0:
		l.advance()
		tok.Kind, tok.Text = TokPunct, l.src[l.pos-1:l.pos]
		return tok, nil

	case c == '=':
		l.advance()
		tok.Kind, tok.Text = TokOp, "="
		return tok, nil
	case c == '!':
		l.advance()
		if l.peek() != '=' {
			return tok, fmt.Errorf("qql: line %d: unexpected '!'", tok.Line)
		}
		l.advance()
		tok.Kind, tok.Text = TokOp, "!="
		return tok, nil
	case c == '<':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			tok.Kind, tok.Text = TokOp, "<="
		} else if l.peek() == '>' {
			l.advance()
			tok.Kind, tok.Text = TokOp, "!="
		} else {
			tok.Kind, tok.Text = TokOp, "<"
		}
		return tok, nil
	case c == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			tok.Kind, tok.Text = TokOp, ">="
		} else {
			tok.Kind, tok.Text = TokOp, ">"
		}
		return tok, nil
	case c == '+' || c == '-' || c == '/':
		l.advance()
		tok.Kind, tok.Text = TokOp, string(c)
		return tok, nil
	}
	return tok, fmt.Errorf("qql: line %d col %d: unexpected character %q", tok.Line, tok.Col, string(c))
}

// quoted consumes a single-quoted string in which a doubled quote stands
// for one; the lexer is positioned at the opening quote. A literal without
// a doubled quote is returned as a substring of the source, with no copy;
// only one holding a doubled quote is rebuilt.
func (l *Lexer) quoted() (string, error) {
	line := l.line
	l.advance() // opening quote
	start := l.pos
	var b strings.Builder // filled only once an escape turns up
	escaped := false
	for {
		if l.pos >= len(l.src) {
			return "", fmt.Errorf("qql: line %d: unterminated string", line)
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() != '\'' {
				if !escaped {
					return l.src[start : l.pos-1], nil
				}
				return b.String(), nil
			}
			l.advance()
			if !escaped {
				b.WriteString(l.src[start : l.pos-2])
				escaped = true
			}
			b.WriteByte('\'')
			continue
		}
		if escaped {
			b.WriteByte(c)
		}
	}
}

// Tokenize lexes the entire input; convenience for tests.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// timeNowDefault is the session default for EvalContext.Now.
func timeNowDefault() time.Time { return time.Now().UTC() }
