package sql

import (
	"context"
	"fmt"
	"strings"

	"pioqo"
)

// Session interprets statements against a pioqo system, holding the
// session-level optimizer settings.
type Session struct {
	sys *pioqo.System

	depthOblivious   bool
	sortedScan       bool
	prefetchPlanning bool
}

// NewSession returns a session over sys.
func NewSession(sys *pioqo.System) *Session {
	return &Session{sys: sys}
}

// Exec parses and executes one statement, returning its textual output.
func (s *Session) Exec(input string) (string, error) {
	if strings.TrimSpace(input) == "" {
		return "", nil
	}
	st, err := Parse(input)
	if err != nil {
		return "", err
	}
	switch st.Kind {
	case StmtCreateTable:
		return s.createTable(st)
	case StmtCalibrate:
		return s.calibrate(st)
	case StmtSelect:
		return s.selectStmt(st)
	case StmtUpdate:
		return s.updateStmt(st)
	case StmtSet:
		return s.set(st)
	case StmtShow:
		return s.show(st)
	case StmtFlush:
		s.sys.FlushBufferPool()
		return "buffer pool flushed", nil
	default:
		return "", fmt.Errorf("sql: unhandled statement kind %d", st.Kind)
	}
}

func (s *Session) createTable(st *Statement) (string, error) {
	var opts []pioqo.TableOption
	if st.Synthetic {
		opts = append(opts, pioqo.WithSyntheticData())
	}
	if st.NoIndex {
		opts = append(opts, pioqo.WithoutIndex())
	}
	tab, err := s.sys.CreateTable(st.Table, st.Rows, st.RowsPerPage, opts...)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("table %q created: %d rows, %d pages, indexed=%v",
		tab.Name(), tab.Rows(), tab.Pages(), tab.Indexed()), nil
}

func (s *Session) calibrate(st *Statement) (string, error) {
	opts := pioqo.CalibrationOptions{}
	switch st.Method {
	case "GW":
		opts.Method = pioqo.GroupWait
	case "MT":
		opts.Method = pioqo.MultiThread
	}
	if st.Reads > 0 {
		opts.MaxReads = st.Reads
	}
	if st.Threshold >= 0 {
		opts.StopThreshold = st.Threshold
		if st.Threshold == 0 {
			opts.StopThreshold = -1 // explicit 0 disables
		}
	}
	cal, err := s.sys.Calibrate(opts)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("calibrated %d bands x %d depths in %v (%d reads, stopped_early=%v)",
		len(cal.Bands), len(cal.Depths), cal.Elapsed, cal.Reads, cal.StoppedEarly), nil
}

func (s *Session) planOptions() pioqo.PlanOptions {
	return pioqo.PlanOptions{
		DepthOblivious:         s.depthOblivious,
		EnableSortedScan:       s.sortedScan,
		EnablePrefetchPlanning: s.prefetchPlanning,
	}
}

func (s *Session) query(st *Statement) (pioqo.Query, error) {
	tab, ok := s.sys.TableByName(st.From)
	if !ok {
		return pioqo.Query{}, fmt.Errorf("sql: unknown table %q", st.From)
	}
	q := pioqo.Query{Table: tab, Low: st.Low, High: st.High}
	switch st.Agg {
	case "MIN":
		q.Agg = pioqo.Min
	case "SUM":
		q.Agg = pioqo.Sum
	case "COUNT":
		q.Agg = pioqo.Count
	}
	return q, nil
}

func (s *Session) selectStmt(st *Statement) (string, error) {
	if st.Analyze && (st.Join != "" || st.GroupWidth > 0) {
		return "", fmt.Errorf("sql: EXPLAIN ANALYZE supports single-table scans only")
	}
	if st.Join != "" {
		return s.joinStmt(st)
	}
	if st.GroupWidth > 0 {
		return s.groupByStmt(st)
	}
	q, err := s.query(st)
	if err != nil {
		return "", err
	}
	if st.Analyze {
		return s.explainAnalyze(st, q)
	}
	if st.Explain {
		plans, err := s.sys.Explain(q, s.planOptions())
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for i, p := range plans {
			marker := "  "
			if i == 0 {
				marker = "=>"
			}
			fmt.Fprintf(&b, "%s %v  io=%v cpu=%v\n", marker, p, p.EstimatedIO, p.EstimatedCPU)
		}
		return strings.TrimRight(b.String(), "\n"), nil
	}
	res, err := s.sys.Run(context.Background(), q, pioqo.WithPlanOptions(s.planOptions()))
	if err != nil {
		return "", err
	}
	value := fmt.Sprint(res.Value)
	if !res.Found {
		value = "NULL"
	}
	return fmt.Sprintf("%s(%s) = %s  (%d rows, %v via %v)",
		st.Agg, aggArg(st.Agg), value, res.Rows, res.Runtime, res.Plan), nil
}

// explainAnalyze runs the query with telemetry capture and renders the
// answer, the virtual-time span tree (query → optimize → operator →
// workers), and the engine metrics attributed to exactly this query.
func (s *Session) explainAnalyze(st *Statement, q pioqo.Query) (string, error) {
	var tel pioqo.QueryTelemetry
	res, err := s.sys.Run(context.Background(), q,
		pioqo.WithPlanOptions(s.planOptions()), pioqo.WithTrace(&tel))
	if err != nil {
		return "", err
	}
	value := fmt.Sprint(res.Value)
	if !res.Found {
		value = "NULL"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s) = %s  (%d rows, %v via %v)\n",
		st.Agg, aggArg(st.Agg), value, res.Rows, res.Runtime, res.Plan)
	b.WriteString(tel.Tree())
	if m := tel.Metrics.String(); m != "" {
		b.WriteString("\n-- metrics --\n")
		b.WriteString(m)
	}
	return b.String(), nil
}

// groupByStmt executes SELECT agg ... GROUP BY C2 DIV width as a parallel
// hash group-by; EXPLAIN is not supported for grouped queries.
func (s *Session) groupByStmt(st *Statement) (string, error) {
	if st.Explain {
		return "", fmt.Errorf("sql: EXPLAIN is not supported with GROUP BY")
	}
	q, err := s.query(st)
	if err != nil {
		return "", err
	}
	res, err := s.sys.Run(context.Background(), pioqo.GroupByQuery{
		Table:      q.Table,
		Low:        q.Low,
		High:       q.High,
		GroupWidth: st.GroupWidth,
		Agg:        q.Agg,
	}, pioqo.WithPlanOptions(s.planOptions()))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d groups over %d rows in %v via %v\n",
		len(res.Groups), res.Rows, res.Runtime, res.Plan)
	const maxShown = 20
	for i, g := range res.Groups {
		if i == maxShown {
			fmt.Fprintf(&b, "... (%d more groups)\n", len(res.Groups)-maxShown)
			break
		}
		fmt.Fprintf(&b, "group %d: %s = %d (%d rows)\n", g.Key, st.Agg, g.Value, g.Rows)
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// joinStmt executes (or, with EXPLAIN, plans) SELECT agg FROM probe JOIN
// build ON C2 WHERE ... .
func (s *Session) joinStmt(st *Statement) (string, error) {
	probe, ok := s.sys.TableByName(st.From)
	if !ok {
		return "", fmt.Errorf("sql: unknown table %q", st.From)
	}
	build, ok := s.sys.TableByName(st.Join)
	if !ok {
		return "", fmt.Errorf("sql: unknown table %q", st.Join)
	}
	jq := pioqo.JoinQuery{Build: build, Probe: probe, Low: st.Low, High: st.High}
	switch st.Agg {
	case "MIN":
		jq.Agg = pioqo.Min
	case "SUM":
		jq.Agg = pioqo.Sum
	case "COUNT":
		jq.Agg = pioqo.Count
	}
	if st.Explain {
		plan, err := s.sys.Plan(jq, s.planOptions())
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("=> %v", plan), nil
	}
	res, err := s.sys.Run(context.Background(), jq, pioqo.WithPlanOptions(s.planOptions()))
	if err != nil {
		return "", err
	}
	value := fmt.Sprint(res.Value)
	if !res.Found {
		value = "NULL"
	}
	return fmt.Sprintf("%s(%s) = %s  (%d pairs, %v; build %v, probe %v)",
		st.Agg, aggArg(st.Agg), value, res.Rows, res.Runtime,
		res.Plan.Join.Build, res.Plan.Join.Probe), nil
}

func aggArg(agg string) string {
	if agg == "COUNT" {
		return "*"
	}
	return "C1"
}

// updateStmt executes UPDATE t SET C1 = C1 + n WHERE C2 BETWEEN a AND b.
func (s *Session) updateStmt(st *Statement) (string, error) {
	tab, ok := s.sys.TableByName(st.From)
	if !ok {
		return "", fmt.Errorf("sql: unknown table %q", st.From)
	}
	res, err := s.sys.Run(context.Background(), pioqo.UpdateQuery{
		Table: tab, Low: st.Low, High: st.High, Delta: st.Delta,
	}, pioqo.WithPlanOptions(s.planOptions()))
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d rows updated, %d pages written, %v via %v",
		res.Rows, res.PagesWritten, res.Runtime, res.Plan), nil
}

func (s *Session) set(st *Statement) (string, error) {
	switch st.Option {
	case "OPTIMIZER":
		s.depthOblivious = st.Value == "OLD"
	case "SORTEDSCAN":
		s.sortedScan = st.Value == "ON"
	case "PREFETCHPLANNING":
		s.prefetchPlanning = st.Value == "ON"
	}
	return fmt.Sprintf("%s = %s", st.Option, st.Value), nil
}

func (s *Session) show(st *Statement) (string, error) {
	switch st.Show {
	case "TABLES":
		names := s.sys.Tables()
		if len(names) == 0 {
			return "(no tables)", nil
		}
		return strings.Join(names, "\n"), nil
	case "MODEL":
		model, err := s.sys.Model()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "band_pages")
		for _, d := range model.Depths() {
			fmt.Fprintf(&b, "\tqd%d", d)
		}
		for _, band := range model.Bands() {
			fmt.Fprintf(&b, "\n%d", band)
			for _, d := range model.Depths() {
				fmt.Fprintf(&b, "\t%.1f", model.PageCost(band, d))
			}
		}
		return b.String(), nil
	}
	return "", fmt.Errorf("sql: unknown SHOW %q", st.Show)
}
