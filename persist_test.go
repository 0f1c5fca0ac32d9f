package pioqo

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestSaveAndLoadModel(t *testing.T) {
	sys, tab := newCalibrated(t, SSD, 50000, 33)
	wantPlan, err := sys.Plan(Query{Table: tab, Low: 0, High: 99}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh system over the same device kind, loading instead of
	// calibrating, must plan identically.
	fresh := New(Config{Device: SSD, PoolPages: 1024})
	tab2, err := fresh.CreateTable("t", 50000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	gotPlan, err := fresh.Plan(Query{Table: tab2, Low: 0, High: 99}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan.Method != wantPlan.Method || gotPlan.Degree != wantPlan.Degree {
		t.Errorf("loaded-model plan %v differs from calibrated plan %v", gotPlan, wantPlan)
	}

	// And queries run fine against the loaded model.
	res, err := fresh.Run(context.Background(), Query{Table: tab2, Low: 0, High: 99}, Cold())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("query with loaded model found nothing")
	}
}

func TestSaveModelRequiresCalibration(t *testing.T) {
	sys := New(Config{Device: SSD})
	var buf bytes.Buffer
	if err := sys.SaveModel(&buf); err == nil {
		t.Error("SaveModel before calibration succeeded")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	sys := New(Config{Device: SSD})
	if err := sys.LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("LoadModel accepted garbage")
	}
	if err := sys.LoadModel(strings.NewReader(
		`{"version":2,"bands":[2,1],"depths":[1],"cost_us_per_page":[[1,1]]}`)); err == nil {
		t.Error("LoadModel accepted a malformed grid")
	}
	if _, err := sys.Model(); err == nil {
		t.Error("failed load left a model installed")
	}
}
