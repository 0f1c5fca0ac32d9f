package workload

import (
	"strings"
	"testing"

	"pioqo/internal/disk"
)

func TestDeviceKindStrings(t *testing.T) {
	cases := map[DeviceKind]string{
		SSD: "SSD", HDD: "HDD", RAID8: "RAID8", SATA: "SATA", NVME: "NVME",
		DeviceKind(99): "DeviceKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestUnknownDeviceKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown device kind")
		}
	}()
	New(Options{Device: DeviceKind(99)})
}

func TestDeviceScalingPreservesSeekGeometry(t *testing.T) {
	// A small system's device must shrink so the table spans a meaningful
	// fraction of it (HDD seek time scales with the platter fraction
	// crossed; see DESIGN.md).
	small := New(Options{Device: HDD, Rows: 66000, RowsPerPage: 33}) // 2000 pages
	tableBytes := small.Table.Pages() * disk.PageSize
	if frac := float64(tableBytes) / float64(small.Dev.Size()); frac < 0.05 {
		t.Errorf("table spans %.3f of the device; scaling failed", frac)
	}
	// A huge system must not exceed the default capacity.
	big := New(Options{Device: HDD, Rows: 100_000_000, RowsPerPage: 33, Synthetic: true})
	if big.Dev.Size() > 64<<30 {
		t.Errorf("device grew beyond the default capacity: %d", big.Dev.Size())
	}
	// A scaled stripe set must hold every offset it admits: at these row
	// counts a child sized to a fraction of a stripe put the last stripe
	// row past its end (calibration, which reads the whole band, panicked).
	for _, rows := range []int64{200000, 123457} {
		raid := New(Options{Device: RAID8, Rows: rows, RowsPerPage: 33, Synthetic: true})
		for off := raid.Dev.Size() - 1<<20; off < raid.Dev.Size(); off += disk.PageSize {
			raid.Dev.ReadAt(off, disk.PageSize)
		}
		raid.Env.Run()
	}
}

func TestSATAAndNVMeSystemsWork(t *testing.T) {
	for _, k := range []DeviceKind{SATA, NVME} {
		s := New(Options{Device: k, Rows: 2000})
		lo, hi := s.RangeFor(0.05)
		res := s.Run(s.Spec(0 /* FullScan */, 2, lo, hi), true)
		if res.RowsMatched == 0 {
			t.Errorf("%v: scan matched nothing", k)
		}
		if !strings.Contains(s.Dev.Name(), "ssd") {
			t.Errorf("%v device name %q", k, s.Dev.Name())
		}
	}
}
