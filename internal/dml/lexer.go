package dml

import (
	"fmt"
	"strings"
	"unicode"
)

// Lex tokenizes a DML script. Comments start with '#' and run to the end
// of the line. Operators include the R-style matrix multiply %*%.
func Lex(src string) ([]Token, error) {
	// The paper's scripts hold a token per 3.3 to 4.6 source bytes, so the
	// slice is sized once.
	toks := make([]Token, 0, len(src)/3+1)
	line := 1
	i := 0
	n := len(src)
	emit := func(k TokenKind, text string) {
		toks = append(toks, Token{Kind: k, Text: text, Line: line})
	}
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '"':
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\n' {
					return nil, fmt.Errorf("dml: line %d: unterminated string", line)
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("dml: line %d: unterminated string", line)
			}
			emit(TokString, src[i+1:j])
			i = j + 1
		case isDigit(c) || c == '.' && i+1 < n && isDigit(src[i+1]):
			j := i
			seenDot, seenExp := false, false
			for j < n {
				d := src[j]
				if isDigit(d) {
					j++
				} else if d == '.' && !seenDot && !seenExp {
					seenDot = true
					j++
				} else if (d == 'e' || d == 'E') && !seenExp && j+1 < n && (isDigit(src[j+1]) || src[j+1] == '-' || src[j+1] == '+') {
					seenExp = true
					j += 2
				} else {
					break
				}
			}
			emit(TokNumber, src[i:j])
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			if keywords[word] {
				emit(TokKeyword, word)
			} else {
				emit(TokIdent, word)
			}
			i = j
		case c == '$':
			j := i + 1
			for j < n && isIdentPart(src[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("dml: line %d: '$' must be followed by a parameter name", line)
			}
			emit(TokParam, src[i+1:j])
			i = j
		case c == '(':
			emit(TokLParen, "(")
			i++
		case c == ')':
			emit(TokRParen, ")")
			i++
		case c == '{':
			emit(TokLBrace, "{")
			i++
		case c == '}':
			emit(TokRBrace, "}")
			i++
		case c == '[':
			emit(TokLBracket, "[")
			i++
		case c == ']':
			emit(TokRBracket, "]")
			i++
		case c == ',':
			emit(TokComma, ",")
			i++
		case c == ';':
			emit(TokSemicolon, ";")
			i++
		case c == '%':
			// %*% matrix multiply, the one %-operator a kernel runs.
			if strings.HasPrefix(src[i:], "%*%") {
				emit(TokOp, "%*%")
				i += 3
			} else {
				return nil, fmt.Errorf("dml: line %d: unexpected '%%'", line)
			}
		default:
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "==", "!=", "<=", ">=", "&&", "||", "<-":
				if two == "<-" {
					emit(TokOp, "=")
				} else {
					emit(TokOp, two)
				}
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '^', '<', '>', '=', '!', '&', '|', ':':
				emit(TokOp, src[i:i+1]) // a substring, where string(c) allocates
				i++
			default:
				return nil, fmt.Errorf("dml: line %d: unexpected character %q", line, rune(c))
			}
		}
	}
	emit(TokEOF, "")
	return toks, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return unicode.IsLetter(rune(c)) || c == '_' || c == '.' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
