package pioqo

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pioqo/internal/calibrate"
	"pioqo/internal/cost"
)

// CalibrationMethod selects how the calibrator generates device queue
// depth (§4.4 of the paper).
type CalibrationMethod int

const (
	// ActiveWait keeps a circular window of asynchronous reads in flight —
	// the paper's recommended general method.
	ActiveWait CalibrationMethod = iota
	// GroupWait issues groups of reads with a barrier between groups; it
	// matches ActiveWait on SSDs but under-measures spinning media.
	GroupWait
	// MultiThread uses one synchronous reader per unit of queue depth.
	MultiThread
)

func (m CalibrationMethod) internal() calibrate.Method {
	switch m {
	case GroupWait:
		return calibrate.GroupWait
	case MultiThread:
		return calibrate.MultiThread
	default:
		return calibrate.ActiveWait
	}
}

// CalibrationOptions tune the calibration pass. Zero values take the
// paper's defaults.
type CalibrationOptions struct {
	// Method is the queue-depth driver. Default ActiveWait.
	Method CalibrationMethod

	// MaxReads is M, the page-read budget per calibration point.
	// Default 3200 (§4.4).
	MaxReads int

	// Repetitions averages each point. Default 1.
	Repetitions int

	// StopThreshold is T of §4.6: stop raising the queue depth when the
	// largest band improves by less than this fraction. The rows the walk
	// skips are not defaulted as in the paper but fitted: the deepest row
	// is measured on a quarter of MaxReads, and the rows between are
	// interpolated in log(depth − 1). Negative disables; zero means the paper's
	// 0.20.
	StopThreshold float64
}

// Calibration is the result of a calibration pass.
type Calibration struct {
	// Model is the calibrated queue-depth-aware cost model.
	Model *cost.QDTT

	// Bands and Depths are the calibrated grid axes (bands in pages).
	Bands  []int64
	Depths []int

	// Reads is the number of page reads the calibration issued; Elapsed is
	// the virtual time it took — the cost §4.6's early stop reduces.
	Reads   int64
	Elapsed time.Duration

	// StoppedEarly reports whether the §4.6 control cut the depth walk
	// short, so that the model's deeper rows are fitted rather than all
	// measured.
	StoppedEarly bool
}

// Calibrate measures the system's device and installs the resulting QDTT
// model as the optimizer's cost model. Call it once per device (the paper
// recalibrates when hardware changes, or during idle cycles).
func (s *System) Calibrate(o CalibrationOptions) (*Calibration, error) {
	cfg := calibrate.DefaultConfig(s.coord().Dev)
	cfg.Method = o.Method.internal()
	if o.MaxReads > 0 {
		cfg.MaxReads = o.MaxReads
	}
	if o.Repetitions > 0 {
		cfg.Repetitions = o.Repetitions
	}
	switch {
	case o.StopThreshold > 0:
		cfg.StopThreshold = o.StopThreshold
	case o.StopThreshold == 0:
		cfg.StopThreshold = 0.20
	}
	if o.MaxReads < 0 || o.Repetitions < 0 {
		return nil, fmt.Errorf("pioqo: negative calibration budget (reads=%d reps=%d)",
			o.MaxReads, o.Repetitions)
	}

	// Calibration measures node 0's device; every node runs the same
	// device kind, so the one model prices I/O for all shards.
	out := calibrate.Run(s.env, s.coord().Dev, cfg)
	s.installModel(out.Model)
	return &Calibration{
		Model:        out.Model,
		Bands:        out.Model.Bands(),
		Depths:       out.Model.Depths(),
		Reads:        out.TotalReads,
		Elapsed:      time.Duration(out.SimTime),
		StoppedEarly: out.StoppedEarly,
	}, nil
}

// Model returns the installed QDTT cost model, or an error if the system
// has not been calibrated.
func (s *System) Model() (*cost.QDTT, error) {
	if s.model == nil {
		return nil, fmt.Errorf("%w: call Calibrate first", ErrNotCalibrated)
	}
	return s.model, nil
}

// DevicePages reports the per-node device capacity in pages — the largest
// band the cost models can be asked about.
func (s *System) DevicePages() int64 { return s.coord().DevicePages() }

// SaveModel writes the calibrated QDTT model as JSON, so a deployment can
// persist a calibration and reload it at startup instead of re-measuring
// the device.
func (s *System) SaveModel(w io.Writer) error {
	if s.model == nil {
		return fmt.Errorf("%w: no model to save", ErrNotCalibrated)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.model)
}

// LoadModel installs a previously saved model as the optimizer's cost
// model, validating the grid. Loading a model calibrated on different
// hardware than the attached device yields well-formed but wrong costs —
// like restoring a stale calibration file onto new hardware would.
func (s *System) LoadModel(r io.Reader) error {
	var m cost.QDTT
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return fmt.Errorf("pioqo: loading model: %w", err)
	}
	s.installModel(&m)
	return nil
}

// installModel swaps the optimizer's cost model and drops everything
// derived from the old one: the plan cache (whose cached costs priced I/O
// with the previous model), the depth-oblivious projection, and the
// resource broker (whose credit supply was the old model's beneficial
// depth) along with the circulating producers' leasing hook into it. The
// model is all an installed system plans from, so a loaded model runs every
// query exactly as the calibration that saved it.
func (s *System) installModel(m *cost.QDTT) {
	s.model = m
	s.depthOne = nil
	s.pcache.Reset()
	s.broker = nil
	for _, n := range s.nodes {
		if n.Shares != nil {
			n.Shares.SetLeaser(nil)
		}
	}
}

// depthOneModel returns the model's depth-one projection, built once per
// installed model. DepthOblivious planning goes through it so repeated
// old-optimizer queries share one DTT — and, crucially, one plan-cache shape.
func (s *System) depthOneModel() *cost.DTT {
	if s.depthOne == nil {
		s.depthOne = s.model.DepthOne()
	}
	return s.depthOne
}
