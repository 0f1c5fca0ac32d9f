package calibrate

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/golden"
	"pioqo/internal/sim"
)

// goldenGrid is the serialized shape of a calibrated model for the golden
// files under testdata/.
type goldenGrid struct {
	Bands  []int64     `json:"bands"`
	Depths []int       `json:"depths"`
	Cost   [][]float64 `json:"cost_us_per_page"`
}

// TestGoldenCalibratedModels pins the default device models' calibrated
// QDTT grids against checked-in golden files. Any change to the device
// mechanics, the calibration layout, or the simulation kernel that shifts
// a calibrated cost by more than 1% trips this test — deliberate model
// changes regenerate the files with `go test -run Golden -update`.
//
// The band-1 column was re-baselined when the sequential band became
// block-shaped; every other cell of the files is as it was. On the SSD that
// is checked to the last bit: its model keeps no clock, so had the band-1
// point drawn one random number more or fewer, or left the drive in another
// state, the cells measured after it would have moved. The disks' rotational
// position does come from the virtual clock, and a band-1 point that now
// ends sooner shifts the first seek of the next point by up to a rotation —
// parts per million of that cell on the HDD, under 1 % across RAID-0's eight
// spindles — so those stay under the general tolerance.
func TestGoldenCalibratedModels(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newDev func(*sim.Env) device.Device
		exact  bool // cells beyond band 1 must equal the golden exactly
	}{
		{"ssd", newSSD, true},
		{"hdd", newHDD, false},
		{"raid8", newRAID, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := golden.Twice(t, func() goldenGrid { return calibratedGrid(tc.newDev) })

			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			data, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if golden.Update(t, path, string(data)+"\n") {
				return
			}
			var want goldenGrid
			if err := json.Unmarshal([]byte(golden.Read(t, path)), &want); err != nil {
				t.Fatal(err)
			}
			if len(want.Cost) != len(got.Cost) {
				t.Fatalf("grid shape changed: %d depth rows, golden %d",
					len(got.Cost), len(want.Cost))
			}
			for di := range want.Cost {
				for bi := range want.Cost[di] {
					w, g := want.Cost[di][bi], got.Cost[di][bi]
					if tc.exact && got.Bands[bi] > 1 && g != w {
						t.Errorf("band %d depth %d: %vus, golden %vus: a cell beyond band 1 moved",
							got.Bands[bi], got.Depths[di], g, w)
					}
					if math.Abs(g-w) > 0.01*w+0.01 {
						t.Errorf("band %d depth %d: %.3fus, golden %.3fus",
							got.Bands[bi], got.Depths[di], g, w)
					}
				}
			}
		})
	}
}

// calibratedGrid calibrates a fresh device on a fresh Env and returns its
// grid.
func calibratedGrid(newDev func(*sim.Env) device.Device) goldenGrid {
	env := sim.NewEnv(7)
	dev := newDev(env)
	cfg := DefaultConfig(dev)
	cfg.MaxReads = 800
	cfg.Bands = []int64{1, 256, 64 << 10, dev.Size() / disk.PageSize}
	out := Run(env, dev, cfg)

	got := goldenGrid{Bands: cfg.Bands, Depths: cfg.Depths}
	for _, d := range cfg.Depths {
		row := make([]float64, len(cfg.Bands))
		for i, b := range cfg.Bands {
			row[i] = out.Model.PageCost(b, d)
		}
		got.Cost = append(got.Cost, row)
	}
	return got
}
