package sql

import (
	"fmt"
	"strconv"
)

// Statement is a parsed statement; exactly one field group is meaningful,
// selected by Kind.
type Statement struct {
	Kind StatementKind

	// CREATE TABLE
	Table       string
	Rows        int64
	RowsPerPage int
	Synthetic   bool
	NoIndex     bool

	// CALIBRATE
	Method    string // "AW", "GW", "MT" ("" = default)
	Reads     int
	Threshold float64 // -1 when not given

	// SELECT / EXPLAIN SELECT
	Agg     string // MAX, MIN, SUM, COUNT
	From    string
	Join    string // "" for single-table queries; else the build table
	Low     int64
	High    int64
	Explain bool
	// Analyze marks EXPLAIN ANALYZE: execute the query and report its span
	// tree and attributed metrics alongside the result.
	Analyze bool

	// GROUP BY C2 / width (0 = no grouping)
	GroupWidth int64

	// UPDATE ... SET C1 = C1 + Delta
	Delta int64

	// SET
	Option string // OPTIMIZER, PREFETCHPLANNING
	Value  string // OLD/NEW/ON/OFF

	// SHOW
	Show string // TABLES, MODEL
}

// StatementKind discriminates Statement.
type StatementKind int

const (
	StmtCreateTable StatementKind = iota
	StmtCalibrate
	StmtSelect
	StmtUpdate
	StmtSet
	StmtShow
	StmtFlush
)

// Parse parses one statement (a trailing ';' is allowed).
func Parse(input string) (*Statement, error) {
	tokens, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokenSymbol, ";")
	if !p.at(tokenEOF, "") {
		return nil, p.errorf("trailing input %q", p.peek().raw)
	}
	return st, nil
}

type parser struct {
	tokens []token
	pos    int
}

func (p *parser) peek() token { return p.tokens[p.pos] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.peek()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[tokenKind]string{
				tokenIdent: "identifier", tokenNumber: "number", tokenSymbol: "symbol",
			}[kind]
		}
		return t, p.errorf("expected %s, got %q", want, t.raw)
	}
	p.pos++
	return t, nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: "+format, append([]interface{}{p.peek().pos}, args...)...)
}

func (p *parser) number() (int64, error) {
	t, err := p.expect(tokenNumber, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.raw)
	}
	return n, nil
}

func (p *parser) float() (float64, error) {
	t, err := p.expect(tokenNumber, "")
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errorf("bad number %q", t.raw)
	}
	return f, nil
}

func (p *parser) statement() (*Statement, error) {
	t := p.peek()
	if t.kind != tokenIdent {
		return nil, p.errorf("expected a statement, got %q", t.raw)
	}
	switch t.text {
	case "CREATE":
		return p.createTable()
	case "CALIBRATE":
		return p.calibrate()
	case "SELECT":
		return p.selectStmt(false)
	case "UPDATE":
		return p.updateStmt()
	case "EXPLAIN":
		p.pos++
		analyze := p.accept(tokenIdent, "ANALYZE")
		st, err := p.selectStmt(true)
		if err != nil {
			return nil, err
		}
		st.Analyze = analyze
		return st, nil
	case "SET":
		return p.set()
	case "SHOW":
		return p.show()
	case "FLUSH":
		p.pos++
		return &Statement{Kind: StmtFlush}, nil
	default:
		return nil, p.errorf("unknown statement %q", t.raw)
	}
}

func (p *parser) createTable() (*Statement, error) {
	p.pos++ // CREATE
	if _, err := p.expect(tokenIdent, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtCreateTable, Table: name.raw}
	if _, err := p.expect(tokenIdent, "ROWS"); err != nil {
		return nil, err
	}
	if st.Rows, err = p.number(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "ROWSPERPAGE"); err != nil {
		return nil, err
	}
	rpp, err := p.number()
	if err != nil {
		return nil, err
	}
	st.RowsPerPage = int(rpp)
	for {
		switch {
		case p.accept(tokenIdent, "SYNTHETIC"):
			st.Synthetic = true
		case p.accept(tokenIdent, "NOINDEX"):
			st.NoIndex = true
		default:
			return st, nil
		}
	}
}

func (p *parser) calibrate() (*Statement, error) {
	p.pos++ // CALIBRATE
	st := &Statement{Kind: StmtCalibrate, Threshold: -1}
	for {
		switch {
		case p.accept(tokenIdent, "METHOD"):
			m, err := p.expect(tokenIdent, "")
			if err != nil {
				return nil, err
			}
			switch m.text {
			case "AW", "GW", "MT":
				st.Method = m.text
			default:
				return nil, p.errorf("unknown calibration method %q", m.raw)
			}
		case p.accept(tokenIdent, "READS"):
			n, err := p.number()
			if err != nil {
				return nil, err
			}
			st.Reads = int(n)
		case p.accept(tokenIdent, "THRESHOLD"):
			f, err := p.float()
			if err != nil {
				return nil, err
			}
			st.Threshold = f
		default:
			return st, nil
		}
	}
}

func (p *parser) selectStmt(explain bool) (*Statement, error) {
	if _, err := p.expect(tokenIdent, "SELECT"); err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtSelect, Explain: explain}
	agg, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	switch agg.text {
	case "MAX", "MIN", "SUM", "COUNT":
		st.Agg = agg.text
	default:
		return nil, p.errorf("unsupported aggregate %q (MAX, MIN, SUM, COUNT)", agg.raw)
	}
	if _, err := p.expect(tokenSymbol, "("); err != nil {
		return nil, err
	}
	if st.Agg == "COUNT" {
		if !p.accept(tokenSymbol, "*") && !p.accept(tokenIdent, "C1") {
			return nil, p.errorf("COUNT takes * or C1")
		}
	} else {
		if _, err := p.expect(tokenIdent, "C1"); err != nil {
			return nil, p.errorf("aggregates apply to column C1")
		}
	}
	if _, err := p.expect(tokenSymbol, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	st.From = from.raw
	if p.accept(tokenIdent, "JOIN") {
		join, err := p.expect(tokenIdent, "")
		if err != nil {
			return nil, err
		}
		st.Join = join.raw
		if _, err := p.expect(tokenIdent, "ON"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokenIdent, "C2"); err != nil {
			return nil, p.errorf("joins are equi-joins on C2")
		}
	}
	if _, err := p.expect(tokenIdent, "WHERE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "C2"); err != nil {
		return nil, p.errorf("predicates apply to column C2")
	}
	if _, err := p.expect(tokenIdent, "BETWEEN"); err != nil {
		return nil, err
	}
	if st.Low, err = p.number(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "AND"); err != nil {
		return nil, err
	}
	if st.High, err = p.number(); err != nil {
		return nil, err
	}
	if p.accept(tokenIdent, "GROUP") {
		if st.Join != "" {
			return nil, p.errorf("GROUP BY is not supported on joins")
		}
		if _, err := p.expect(tokenIdent, "BY"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokenIdent, "C2"); err != nil {
			return nil, p.errorf("grouping is by C2 / width")
		}
		if !p.accept(tokenIdent, "DIV") && !p.accept(tokenSymbol, "/") {
			return nil, p.errorf("grouping is by C2 / width")
		}
		if st.GroupWidth, err = p.number(); err != nil {
			return nil, err
		}
		if st.GroupWidth <= 0 {
			return nil, p.errorf("group width must be positive")
		}
	}
	return st, nil
}

// updateStmt parses UPDATE t SET C1 = C1 + n WHERE C2 BETWEEN a AND b.
func (p *parser) updateStmt() (*Statement, error) {
	p.pos++ // UPDATE
	name, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtUpdate, From: name.raw}
	if _, err := p.expect(tokenIdent, "SET"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "C1"); err != nil {
		return nil, p.errorf("updates modify column C1")
	}
	if _, err := p.expect(tokenSymbol, "="); err != nil {
		return nil, p.errorf("update form is SET C1 = C1 + n")
	}
	if _, err := p.expect(tokenIdent, "C1"); err != nil {
		return nil, p.errorf("update form is SET C1 = C1 + n")
	}
	if _, err := p.expect(tokenSymbol, "+"); err != nil {
		return nil, p.errorf("update form is SET C1 = C1 + n")
	}
	if st.Delta, err = p.number(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "WHERE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "C2"); err != nil {
		return nil, p.errorf("predicates apply to column C2")
	}
	if _, err := p.expect(tokenIdent, "BETWEEN"); err != nil {
		return nil, err
	}
	if st.Low, err = p.number(); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokenIdent, "AND"); err != nil {
		return nil, err
	}
	if st.High, err = p.number(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) set() (*Statement, error) {
	p.pos++ // SET
	opt, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	st := &Statement{Kind: StmtSet, Option: opt.text}
	val, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	st.Value = val.text
	switch st.Option {
	case "OPTIMIZER":
		if st.Value != "OLD" && st.Value != "NEW" {
			return nil, p.errorf("SET OPTIMIZER takes OLD or NEW")
		}
	case "PREFETCHPLANNING":
		if st.Value != "ON" && st.Value != "OFF" {
			return nil, p.errorf("SET PREFETCHPLANNING takes ON or OFF")
		}
	default:
		return nil, p.errorf("unknown option %q", opt.raw)
	}
	return st, nil
}

func (p *parser) show() (*Statement, error) {
	p.pos++ // SHOW
	what, err := p.expect(tokenIdent, "")
	if err != nil {
		return nil, err
	}
	if what.text != "TABLES" && what.text != "MODEL" {
		return nil, p.errorf("SHOW takes TABLES or MODEL")
	}
	return &Statement{Kind: StmtShow, Show: what.text}, nil
}
