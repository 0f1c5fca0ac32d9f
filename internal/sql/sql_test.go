package sql

import (
	"strings"
	"testing"

	"pioqo"
)

// --- lexer ---

func TestLexBasics(t *testing.T) {
	tokens, err := lex("SELECT max(C1) FROM t_1 WHERE C2 BETWEEN -5 AND 10;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range tokens {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	if texts[0] != "SELECT" || texts[1] != "MAX" {
		t.Errorf("keywords not upper-cased: %v", texts[:2])
	}
	if tokens[1].raw != "max" {
		t.Errorf("raw spelling lost: %q", tokens[1].raw)
	}
	found := false
	for _, tk := range tokens {
		if tk.kind == tokenNumber && tk.text == "-5" {
			found = true
		}
	}
	if !found {
		t.Error("negative number not lexed")
	}
	if kinds[len(kinds)-1] != tokenEOF {
		t.Error("missing EOF token")
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"SELECT @", "a # b", "x !"} {
		if _, err := lex(bad); err == nil {
			t.Errorf("lex(%q) succeeded", bad)
		}
	}
}

// --- parser ---

func TestParseSelect(t *testing.T) {
	st, err := Parse("SELECT MAX(C1) FROM orders WHERE C2 BETWEEN 10 AND 99;")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtSelect || st.Agg != "MAX" || st.From != "orders" ||
		st.Low != 10 || st.High != 99 || st.Explain {
		t.Errorf("parsed %+v", st)
	}
}

func TestParseCountStar(t *testing.T) {
	st, err := Parse("SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "COUNT" {
		t.Errorf("agg = %q", st.Agg)
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse("EXPLAIN SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Explain || st.Agg != "SUM" {
		t.Errorf("parsed %+v", st)
	}
}

func TestParseExplainAnalyze(t *testing.T) {
	st, err := Parse("EXPLAIN ANALYZE SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Analyze || st.Agg != "SUM" {
		t.Errorf("parsed %+v", st)
	}
	st, err = Parse("EXPLAIN SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 5")
	if err != nil {
		t.Fatal(err)
	}
	if st.Analyze {
		t.Error("plain EXPLAIN parsed as ANALYZE")
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE t33 ROWS 400000 ROWSPERPAGE 33 SYNTHETIC NOINDEX")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table != "t33" || st.Rows != 400000 || st.RowsPerPage != 33 ||
		!st.Synthetic || !st.NoIndex {
		t.Errorf("parsed %+v", st)
	}
}

func TestParseCalibrate(t *testing.T) {
	st, err := Parse("CALIBRATE METHOD GW READS 800 THRESHOLD 0.2")
	if err != nil {
		t.Fatal(err)
	}
	if st.Method != "GW" || st.Reads != 800 || st.Threshold != 0.2 {
		t.Errorf("parsed %+v", st)
	}
	st, err = Parse("CALIBRATE")
	if err != nil {
		t.Fatal(err)
	}
	if st.Method != "" || st.Threshold != -1 {
		t.Errorf("defaults wrong: %+v", st)
	}
}

func TestParseSetAndShow(t *testing.T) {
	for _, ok := range []string{
		"SET OPTIMIZER OLD", "SET OPTIMIZER NEW",
		"SET PREFETCHPLANNING ON", "SET PREFETCHPLANNING OFF",
		"SHOW TABLES", "SHOW MODEL", "FLUSH",
	} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q): %v", ok, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT AVG(C1) FROM t WHERE C2 BETWEEN 0 AND 1",
		"SELECT MAX(C2) FROM t WHERE C2 BETWEEN 0 AND 1",
		"SELECT MAX(C1) FROM t WHERE C1 BETWEEN 0 AND 1",
		"SELECT MAX(C1) FROM t",
		"CREATE TABLE t",
		"SET OPTIMIZER SIDEWAYS",
		"SET PREFETCHPLANNING MAYBE",
		"SET NOSUCHOPTION ON",
		"SHOW EVERYTHING",
		"DROP TABLE t",
		"SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 1 garbage",
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) succeeded", input)
		}
	}
}

// --- session ---

func newSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(pioqo.New(pioqo.Config{Device: pioqo.SSD, PoolPages: 1024}))
}

func (s *Session) mustExec(t *testing.T, stmt string) string {
	t.Helper()
	out, err := s.Exec(stmt)
	if err != nil {
		t.Fatalf("Exec(%q): %v", stmt, err)
	}
	return out
}

func TestSessionEndToEnd(t *testing.T) {
	s := newSession(t)
	s.mustExec(t, "CREATE TABLE t ROWS 50000 ROWSPERPAGE 33 SYNTHETIC;")
	s.mustExec(t, "CALIBRATE READS 640;")

	out := s.mustExec(t, "SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 499;")
	if !strings.Contains(out, "COUNT(*) = 500") {
		t.Errorf("count output %q, want 500 (synthetic keys are dense)", out)
	}

	out = s.mustExec(t, "SELECT MAX(C1) FROM t WHERE C2 BETWEEN 600 AND 599;")
	if !strings.Contains(out, "NULL") {
		t.Errorf("empty-range MAX output %q, want NULL", out)
	}

	out = s.mustExec(t, "EXPLAIN SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 499;")
	if !strings.Contains(out, "=>") {
		t.Errorf("explain output %q missing chosen-plan marker", out)
	}

	out = s.mustExec(t, "EXPLAIN ANALYZE SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 499;")
	// The preceding COUNT warmed this range, so the run is all buffer hits
	// (zero counter deltas, device reads included, are omitted).
	for _, want := range []string{"query ", "optimize", "-- metrics --", "buffer.hits", "exec.scans +1"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}

	out = s.mustExec(t, "SHOW TABLES;")
	if out != "t" {
		t.Errorf("SHOW TABLES = %q", out)
	}

	out = s.mustExec(t, "SHOW MODEL;")
	if !strings.Contains(out, "qd32") {
		t.Errorf("SHOW MODEL output %q missing depth columns", out)
	}
}

func TestSessionOptimizerToggle(t *testing.T) {
	s := newSession(t)
	s.mustExec(t, "CREATE TABLE t ROWS 100000 ROWSPERPAGE 33 SYNTHETIC;")
	s.mustExec(t, "CALIBRATE READS 640;")

	s.mustExec(t, "SET OPTIMIZER OLD;")
	oldOut := s.mustExec(t, "EXPLAIN SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 99;")
	s.mustExec(t, "SET OPTIMIZER NEW;")
	newOut := s.mustExec(t, "EXPLAIN SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 99;")
	oldPlan := strings.SplitN(oldOut, "\n", 2)[0]
	newPlan := strings.SplitN(newOut, "\n", 2)[0]
	if oldPlan == newPlan {
		t.Errorf("old and new optimizers chose the same plan:\n%s", oldPlan)
	}
	if !strings.Contains(newPlan, "PIS") {
		t.Errorf("new optimizer plan %q, want a parallel index scan", newPlan)
	}
}

func TestParseJoin(t *testing.T) {
	st, err := Parse("SELECT COUNT(*) FROM fact JOIN dim ON C2 WHERE C2 BETWEEN 0 AND 99")
	if err != nil {
		t.Fatal(err)
	}
	if st.From != "fact" || st.Join != "dim" || st.Agg != "COUNT" {
		t.Errorf("parsed %+v", st)
	}
	if _, err := Parse("SELECT MAX(C1) FROM a JOIN b ON C1 WHERE C2 BETWEEN 0 AND 1"); err == nil {
		t.Error("join on C1 accepted")
	}
	if _, err := Parse("SELECT MAX(C1) FROM a JOIN ON C2 WHERE C2 BETWEEN 0 AND 1"); err == nil {
		t.Error("join without table accepted")
	}
}

func TestSessionJoin(t *testing.T) {
	s := newSession(t)
	s.mustExec(t, "CREATE TABLE dim ROWS 3000 ROWSPERPAGE 33;")
	s.mustExec(t, "CREATE TABLE fact ROWS 20000 ROWSPERPAGE 33;")
	s.mustExec(t, "CALIBRATE READS 640;")
	out := s.mustExec(t, "SELECT COUNT(*) FROM fact JOIN dim ON C2 WHERE C2 BETWEEN 0 AND 499;")
	if !strings.Contains(out, "pairs") || !strings.Contains(out, "build") {
		t.Errorf("join output %q", out)
	}
	out = s.mustExec(t, "EXPLAIN SELECT COUNT(*) FROM fact JOIN dim ON C2 WHERE C2 BETWEEN 0 AND 9;")
	if !strings.Contains(out, "Join") || !strings.Contains(out, "=>") {
		t.Errorf("join explain output %q", out)
	}
	if _, err := s.Exec("SELECT COUNT(*) FROM fact JOIN missing ON C2 WHERE C2 BETWEEN 0 AND 9;"); err == nil {
		t.Error("join against missing table succeeded")
	}
}

func TestParseGroupBy(t *testing.T) {
	st, err := Parse("SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 999 GROUP BY C2 DIV 100")
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupWidth != 100 {
		t.Errorf("group width = %d", st.GroupWidth)
	}
	bad := []string{
		"SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 9 GROUP BY C1 DIV 10",
		"SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 9 GROUP BY C2 DIV 0",
		"SELECT COUNT(*) FROM a JOIN b ON C2 WHERE C2 BETWEEN 0 AND 9 GROUP BY C2 DIV 10",
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) succeeded", input)
		}
	}
}

func TestSessionGroupBy(t *testing.T) {
	s := newSession(t)
	s.mustExec(t, "CREATE TABLE t ROWS 50000 ROWSPERPAGE 33 SYNTHETIC;")
	s.mustExec(t, "CALIBRATE READS 640;")
	out := s.mustExec(t, "SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 999 GROUP BY C2 DIV 100;")
	if !strings.Contains(out, "10 groups") {
		t.Errorf("group-by output %q, want 10 groups (synthetic keys dense)", out)
	}
	if !strings.Contains(out, "COUNT = 100") {
		t.Errorf("group-by output %q, want groups of exactly 100", out)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE t SET C1 = C1 + 7 WHERE C2 BETWEEN 10 AND 99;")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != StmtUpdate || st.From != "t" || st.Delta != 7 ||
		st.Low != 10 || st.High != 99 {
		t.Errorf("parsed %+v", st)
	}
	bad := []string{
		"UPDATE t SET C2 = C2 + 1 WHERE C2 BETWEEN 0 AND 1",
		"UPDATE t SET C1 = C1 WHERE C2 BETWEEN 0 AND 1",
		"UPDATE t SET C1 = C1 + 1",
	}
	for _, input := range bad {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) succeeded", input)
		}
	}
}

func TestSessionUpdate(t *testing.T) {
	s := newSession(t)
	s.mustExec(t, "CREATE TABLE t ROWS 5000 ROWSPERPAGE 33;")
	s.mustExec(t, "CALIBRATE READS 640;")
	before := s.mustExec(t, "SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 99;")
	out := s.mustExec(t, "UPDATE t SET C1 = C1 + 5 WHERE C2 BETWEEN 0 AND 99;")
	if !strings.Contains(out, "rows updated") || !strings.Contains(out, "pages written") {
		t.Errorf("update output %q", out)
	}
	after := s.mustExec(t, "SELECT SUM(C1) FROM t WHERE C2 BETWEEN 0 AND 99;")
	if before == after {
		t.Error("SUM unchanged after update")
	}
	if _, err := s.Exec("UPDATE missing SET C1 = C1 + 1 WHERE C2 BETWEEN 0 AND 1;"); err == nil {
		t.Error("update of missing table succeeded")
	}
}

func TestGroupBySlashSyntax(t *testing.T) {
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 9 GROUP BY C2 / 5"); err != nil {
		t.Errorf("slash grouping rejected: %v", err)
	}
}

func TestSessionErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("SELECT MAX(C1) FROM missing WHERE C2 BETWEEN 0 AND 1;"); err == nil {
		t.Error("query on missing table succeeded")
	}
	if _, err := s.Exec("SHOW MODEL;"); err == nil {
		t.Error("SHOW MODEL before calibration succeeded")
	}
	s.mustExec(t, "CREATE TABLE t ROWS 100 ROWSPERPAGE 10;")
	if _, err := s.Exec("SELECT MAX(C1) FROM t WHERE C2 BETWEEN 0 AND 1;"); err == nil {
		t.Error("query before calibration succeeded")
	}
	if _, err := s.Exec("CREATE TABLE t ROWS 100 ROWSPERPAGE 10;"); err == nil {
		t.Error("duplicate table succeeded")
	}
	if out := s.mustExec(t, "   "); out != "" {
		t.Errorf("blank statement output %q", out)
	}
	if _, err := s.Exec("EXPLAIN ANALYZE SELECT COUNT(*) FROM t WHERE C2 BETWEEN 0 AND 9 GROUP BY C2 / 5;"); err == nil {
		t.Error("EXPLAIN ANALYZE with GROUP BY succeeded")
	}
}
