// Package dml implements the frontend of the declarative ML language: an
// R-like scripting language with linear algebra, statistical functions and
// control flow (paper §2.1). Scripts are lexed, parsed into an AST, and
// grouped into the hierarchy of statement blocks that drives HOP DAG
// construction and — crucially for the resource optimizer — defines the
// per-block MR resources r_i of the configuration vector R_P.
package dml

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokNumber
	TokString
	TokIdent
	TokParam // $name command-line parameter
	TokKeyword
	TokOp
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokComma
	TokSemicolon
)

func (k TokenKind) String() string {
	if uint(k) < uint(len(tokenNames)) {
		return tokenNames[k]
	}
	return "?"
}

var tokenNames = [...]string{
	TokEOF: "EOF", TokNumber: "number", TokString: "string", TokIdent: "identifier",
	TokParam: "parameter", TokKeyword: "keyword", TokOp: "operator",
	TokLParen: "'('", TokRParen: "')'", TokLBrace: "'{'", TokRBrace: "'}'",
	TokLBracket: "'['", TokRBracket: "']'", TokComma: "','", TokSemicolon: "';'",
}

// Token is one lexical token with its source line (1-based).
type Token struct {
	Kind TokenKind
	Text string
	Line int
}

func (t Token) String() string {
	return fmt.Sprintf("%s %q (line %d)", t.Kind, t.Text, t.Line)
}

var keywords = map[string]bool{
	"if": true, "else": true, "while": true, "for": true, "in": true,
	"function": true, "return": true, "TRUE": true, "FALSE": true,
	"parfor": true,
}
