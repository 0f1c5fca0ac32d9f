package pioqo

import (
	"context"
	"math"
	"testing"
	"time"
)

// The paper's core argument for a *calibrated* model: "a query optimizer
// that operates on a range of storage technologies (HDD, RAID HDD, SSD,
// and even future technologies) must have a principled way to determine
// what the likely benefit is when using I/O parallelism." These tests run
// the identical optimizer over four device generations and check that the
// chosen parallel degree tracks each device's measured capability, with no
// device-specific code anywhere in the planning path.

// bestIndexScan calibrates a fresh system of the given kind and returns
// the best index-scan candidate (degree and estimated I/O benefit over
// serial) for a 1% index-range query.
func bestIndexScan(t *testing.T, kind DeviceKind) (degree int, gainOverSerial float64) {
	t.Helper()
	sys := New(Config{Device: kind, PoolPages: 1024})
	tab, err := sys.CreateTable("t", 200000, 33, WithSyntheticData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 800, StopThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Explain(Query{Table: tab, Low: 0, High: 1999}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var best, serial *Plan
	for i := range plans {
		p := &plans[i]
		if p.Method != IndexScan {
			continue
		}
		if best == nil {
			best = p // plans are sorted by cost
		}
		if p.Degree == 1 {
			serial = p
		}
	}
	if best == nil || serial == nil {
		t.Fatalf("%v: missing index-scan candidates", kind)
	}
	return best.Degree, float64(serial.EstimatedIO) / float64(best.EstimatedIO)
}

func TestOptimizerDegreeTracksDeviceGeneration(t *testing.T) {
	// The chosen degree reflects where each device's controller caps the
	// benefit, and the estimated parallel I/O gain tracks the device
	// generation — without any device-specific branches in the optimizer.
	hddDeg, hddGain := bestIndexScan(t, HDD)
	sataDeg, sataGain := bestIndexScan(t, SATA)
	ssdDeg, ssdGain := bestIndexScan(t, SSD)
	nvmeDeg, nvmeGain := bestIndexScan(t, NVME)

	// SATA's controller caps its benefit near depth 16: deeper queues must
	// buy almost nothing (whether the tie breaks at 16 or 32 is noise).
	if sataGain > 20 {
		t.Errorf("SATA estimated parallel gain %.1fx, want capped (< 20x)", sataGain)
	}
	_ = sataDeg
	if ssdDeg < 32 {
		t.Errorf("PCIe SSD degree = %d, want 32", ssdDeg)
	}
	if nvmeDeg < 32 {
		t.Errorf("NVMe degree = %d, want 32", nvmeDeg)
	}
	if !(hddGain < sataGain && sataGain < ssdGain && ssdGain < nvmeGain) {
		t.Errorf("estimated parallel gains not ordered by generation: HDD %.1fx, SATA %.1fx, SSD %.1fx, NVMe %.1fx",
			hddGain, sataGain, ssdGain, nvmeGain)
	}
	if hddGain > 5 {
		t.Errorf("HDD estimated parallel gain %.1fx, want modest (paper: ~2.4x)", hddGain)
	}
	if nvmeGain < 15 {
		t.Errorf("NVMe estimated parallel gain %.1fx, want near-linear", nvmeGain)
	}
	_ = hddDeg // the HDD may rationally pick any degree: 2x of 5ms pages is a real saving
}

func TestCalibratedDepthGainsOrderAcrossGenerations(t *testing.T) {
	gain := func(kind DeviceKind) float64 {
		sys := New(Config{Device: kind})
		cal, err := sys.Calibrate(CalibrationOptions{MaxReads: 800, StopThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		band := sys.DevicePages()
		return cal.Model.PageCost(band, 1) / cal.Model.PageCost(band, 32)
	}
	hdd, sata, nvme := gain(HDD), gain(SATA), gain(NVME)
	if !(hdd < sata && sata < nvme) {
		t.Errorf("depth-32 gains not ordered: HDD %.1fx, SATA %.1fx, NVMe %.1fx",
			hdd, sata, nvme)
	}
	if nvme < 20 {
		t.Errorf("NVMe depth-32 gain %.1fx, want near-linear (>= 20x)", nvme)
	}
	if sata > 20 {
		t.Errorf("SATA depth-32 gain %.1fx, want capped by its controller (< 20x)", sata)
	}
}

// TestPlanTracksBestStatic: on every (device, skew, selectivity) cell the
// degree the optimizer plans finishes within 10 % of whichever static
// degree wins the cell.
func TestPlanTracksBestStatic(t *testing.T) {
	const rows, points = 2048 * 33, 5
	// runtimes sweeps the selectivities cold on a fresh system: at the
	// planned degree for degree 0, pinned to the degree otherwise.
	runtimes := func(dev DeviceKind, zipf float64, degree int) (out [points]time.Duration) {
		sys := New(Config{Device: dev, PoolPages: 256})
		data := WithSyntheticData()
		if zipf > 0 {
			data = WithZipfData(zipf)
		}
		tab, err := sys.CreateTable("grid", rows, 33, data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Calibrate(CalibrationOptions{MaxReads: 640}); err != nil {
			t.Fatal(err)
		}
		opts := []QueryOption{Cold()}
		if degree > 0 {
			opts = append(opts, WithStaticDegree(degree))
		}
		for i := range out {
			sel := 0.002 * math.Pow(300, float64(i)/(points-1)) // 0.2 % … 60 %
			res, err := sys.Run(context.Background(), Query{Table: tab, Low: 0, High: int64(sel*rows) - 1}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.Runtime
		}
		return out
	}
	for _, dev := range []DeviceKind{SSD, HDD} {
		for _, zipf := range []float64{0, 1.3} {
			planned := runtimes(dev, zipf, 0)
			best := runtimes(dev, zipf, 1)
			for _, degree := range []int{2, 4, 8, 16, 32} {
				for i, rt := range runtimes(dev, zipf, degree) {
					best[i] = min(best[i], rt)
				}
			}
			for i := range planned {
				if float64(planned[i]) > 1.10*float64(best[i]) {
					t.Errorf("%v zipf=%v point %d: planned %v is more than 10%% over the best static %v",
						dev, zipf, i, planned[i], best[i])
				}
			}
		}
	}
}
