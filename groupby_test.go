package pioqo

import (
	"errors"
	"testing"
)

func TestExecuteGroupByCorrectness(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 20000, 33)
	res, err := sys.ExecuteGroupBy(GroupByQuery{
		Table: tab, Low: 0, High: 1999, GroupWidth: 500, Agg: Count,
	}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("%d groups, want 4", len(res.Groups))
	}
	// Group counts must sum to the unconditional COUNT over the range.
	var sum int64
	for _, g := range res.Groups {
		sum += g.Value
		if g.Value != g.Rows {
			t.Errorf("group %d: COUNT %d != rows %d", g.Key, g.Value, g.Rows)
		}
	}
	whole, err := sys.Execute(Query{Table: tab, Low: 0, High: 1999, Agg: Count}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if sum != whole.Value {
		t.Errorf("group counts sum to %d, whole-range COUNT is %d", sum, whole.Value)
	}
	if res.Plan.Degree == 0 || res.Runtime <= 0 {
		t.Errorf("missing plan/runtime: %+v", res)
	}
}

func TestExecuteGroupByValidation(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 1000, 33)
	if _, err := sys.ExecuteGroupBy(GroupByQuery{Table: tab, GroupWidth: 0}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("zero group width: err = %v, want ErrInvalidQuery", err)
	}
	if _, err := sys.ExecuteGroupBy(GroupByQuery{GroupWidth: 10}); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("missing table: err = %v, want ErrInvalidQuery", err)
	}
}
