// Package sql implements a small SQL dialect over the pioqo engine,
// covering the paper's probe-query shape plus the DDL and control
// statements needed to drive experiments interactively:
//
//	CREATE TABLE t ROWS 400000 ROWSPERPAGE 33 [SYNTHETIC] [NOINDEX];
//	CALIBRATE [METHOD AW|GW|MT] [READS n] [THRESHOLD 0.2];
//	SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 999;
//	SELECT COUNT(*) FROM fact JOIN dim ON C2 WHERE C2 BETWEEN 0 AND 999;
//	SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 9999 GROUP BY C2 / 1000;
//	UPDATE t SET C1 = C1 + 10 WHERE C2 BETWEEN 0 AND 999;
//	EXPLAIN SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 999;
//	SET OPTIMIZER OLD | NEW;
//	SET PREFETCHPLANNING ON | OFF;
//	SHOW TABLES;  SHOW MODEL;  FLUSH;
//
// Keywords are case-insensitive; statements end at ';' or end of input.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokenEOF tokenKind = iota
	tokenIdent
	tokenNumber
	tokenSymbol // ( ) * , ;
)

type token struct {
	kind tokenKind
	text string // idents upper-cased; numbers and symbols verbatim
	raw  string // original spelling, for error messages and table names
	pos  int
}

// lex tokenizes input. Errors are positional.
func lex(input string) ([]token, error) {
	var tokens []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(' || c == ')' || c == '*' || c == ',' || c == ';' || c == '=' || c == '+' || c == '/':
			tokens = append(tokens, token{tokenSymbol, string(c), string(c), i})
			i++
		case c == '-' || c == '.' || unicode.IsDigit(c):
			start := i
			if c == '-' {
				i++
			}
			seenDot := false
			for i < len(input) {
				d := input[i]
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				if d < '0' || d > '9' {
					break
				}
				i++
			}
			text := input[start:i]
			if text == "-" || text == "." || text == "-." {
				return nil, fmt.Errorf("sql: invalid number at offset %d", start)
			}
			tokens = append(tokens, token{tokenNumber, text, text, start})
		case unicode.IsLetter(c) || c == '_':
			start := i
			for i < len(input) {
				d := rune(input[i])
				if !unicode.IsLetter(d) && !unicode.IsDigit(d) && d != '_' {
					break
				}
				i++
			}
			raw := input[start:i]
			tokens = append(tokens, token{tokenIdent, strings.ToUpper(raw), raw, start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	tokens = append(tokens, token{tokenEOF, "", "", len(input)})
	return tokens, nil
}
