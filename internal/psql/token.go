// Package psql implements Preference SQL (§6.1): SQL extended by a
// PREFERRING clause for soft constraints under BMO semantics, CASCADE
// chains, GROUPING BY, quality supervision via BUT ONLY with LEVEL and
// DISTANCE, the SKYLINE OF clause of [BKS01], and TOP-k for the ranked
// query model. Queries are parsed into an AST, planned, and executed
// against in-memory relations (internal/relation) using the evaluation
// engines of internal/engine.
package psql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp     // = <> != < <= > >= + - * /
	TokLParen // (
	TokRParen // )
	TokComma
	TokSemi
	TokStar
)

// Token is one lexical token with its source position (1-based offset).
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep their case
	Pos  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of query"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	}
	return t.Text
}

// keywords of Preference SQL. Multi-word constructs (PRIOR TO, BUT ONLY,
// GROUPING BY, SKYLINE OF, NOT IN, ORDER BY, IS NULL) are assembled in the
// parser from consecutive keyword tokens.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "PREFERRING": true,
	"CASCADE": true, "BUT": true, "ONLY": true, "GROUPING": true,
	"BY": true, "ORDER": true, "AND": true, "OR": true, "NOT": true,
	"IN": true, "LIKE": true, "IS": true, "NULL": true, "ELSE": true,
	"AROUND": true, "BETWEEN": true, "LOWEST": true, "HIGHEST": true,
	"SCORE": true, "EXPLICIT": true, "PRIOR": true, "TO": true,
	"SKYLINE": true, "OF": true, "MIN": true, "MAX": true, "TOP": true,
	"LIMIT": true, "ASC": true, "DESC": true, "DISTINCT": true,
	"LEVEL": true, "DISTANCE": true, "AS": true, "TRUE": true, "FALSE": true,
	"EXPLAIN": true,
	"RANK":    true,
}

// Lex tokenizes a Preference SQL query.
func Lex(input string) ([]Token, error) {
	l := lexer{input: input}
	var toks []Token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// lexer hands out the tokens of a statement one at a time, so a parser
// holds only its lookahead, never the whole token list. After the last
// token it returns TokEOF on every call.
type lexer struct {
	input string
	i     int
	prev  TokenKind // kind of the last token returned; TokEOF before the first
}

// next returns the next token, or the error of the first character that
// starts none.
func (l *lexer) next() (Token, error) {
	t, err := l.scan()
	if err == nil {
		l.prev = t.Kind
	}
	return t, err
}

// scan reads one token at l.i.
func (l *lexer) scan() (Token, error) {
	input, n := l.input, len(l.input)
	for l.i < n {
		i := l.i
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.i++
		case c == '(':
			l.i++
			return Token{TokLParen, "(", i + 1}, nil
		case c == ')':
			l.i++
			return Token{TokRParen, ")", i + 1}, nil
		case c == ',':
			l.i++
			return Token{TokComma, ",", i + 1}, nil
		case c == ';':
			l.i++
			return Token{TokSemi, ";", i + 1}, nil
		case c == '*':
			l.i++
			return Token{TokStar, "*", i + 1}, nil
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			closed := false
			for j < n {
				if input[j] == '\'' {
					if j+1 < n && input[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					break
				}
				sb.WriteByte(input[j])
				j++
			}
			if !closed {
				return Token{}, fmt.Errorf("psql: unterminated string literal at offset %d", i+1)
			}
			l.i = j + 1
			return Token{TokString, sb.String(), i + 1}, nil
		case c == '=':
			l.i++
			return Token{TokOp, "=", i + 1}, nil
		case c == '<':
			switch {
			case i+1 < n && input[i+1] == '>':
				l.i += 2
				return Token{TokOp, "<>", i + 1}, nil
			case i+1 < n && input[i+1] == '=':
				l.i += 2
				return Token{TokOp, "<=", i + 1}, nil
			}
			l.i++
			return Token{TokOp, "<", i + 1}, nil
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				l.i += 2
				return Token{TokOp, ">=", i + 1}, nil
			}
			l.i++
			return Token{TokOp, ">", i + 1}, nil
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				l.i += 2
				return Token{TokOp, "<>", i + 1}, nil
			}
			return Token{}, fmt.Errorf("psql: unexpected '!' at offset %d", i+1)
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			l.i = scanNumber(input, i)
			return Token{TokNumber, input[i:l.i], i + 1}, nil
		case c == '-' && (l.prev == TokOp || l.prev == TokLParen || l.prev == TokComma || l.prev == TokKeyword):
			// Unary minus on a numeric literal.
			j := scanNumber(input, i+1)
			if j == i+1 {
				return Token{}, fmt.Errorf("psql: stray '-' at offset %d", i+1)
			}
			l.i = j
			return Token{TokNumber, input[i:j], i + 1}, nil
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(input[j])) {
				j++
			}
			l.i = j
			word := input[i:j]
			if upper := strings.ToUpper(word); keywords[upper] {
				return Token{TokKeyword, upper, i + 1}, nil
			}
			return Token{TokIdent, word, i + 1}, nil
		default:
			return Token{}, fmt.Errorf("psql: unexpected character %q at offset %d", c, i+1)
		}
	}
	return Token{TokEOF, "", n + 1}, nil
}

// scanNumber returns the end of the numeric literal at input[i:]: digits
// with at most one dot, then an optional exponent (e or E, an optional
// sign, digits), the form pref.FormatValue gives large and small
// numbers.
func scanNumber(input string, i int) int {
	digit := func(j int) bool { return j < len(input) && input[j] >= '0' && input[j] <= '9' }
	j := i
	for seenDot := false; digit(j) || j < len(input) && input[j] == '.' && !seenDot; j++ {
		seenDot = seenDot || input[j] == '.'
	}
	if j == i || j >= len(input) || input[j] != 'e' && input[j] != 'E' {
		return j
	}
	k := j + 1
	if k < len(input) && (input[k] == '+' || input[k] == '-') {
		k++
	}
	if !digit(k) {
		return j
	}
	for digit(k) {
		k++
	}
	return k
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
