package cost

import (
	"encoding/json"
	"fmt"
)

// qdttJSON is the serialized form of a QDTT model. Versioning the format
// lets deployments persist a calibration (which can take minutes of device
// time on spinning media) and reload it at startup, recalibrating only
// when hardware changes.
type qdttJSON struct {
	Version int         `json:"version"`
	Bands   []int64     `json:"bands"`
	Depths  []int       `json:"depths"`
	Cost    [][]float64 `json:"cost_us_per_page"`
}

// qdttFormatVersion counts changes to what the numbers in a model file mean,
// not only to how they are laid out. Version 2 has the layout of version 1,
// but its band-1 row is the price per page of consecutive block reads at the
// row's depth; version 1's was that of single-page reads, which an optimizer
// that prices a scan's readahead window would read as 1.2–1.9× too dear.
const qdttFormatVersion = 2

// MarshalJSON implements json.Marshaler.
func (q *QDTT) MarshalJSON() ([]byte, error) {
	return json.Marshal(qdttJSON{
		Version: qdttFormatVersion,
		Bands:   q.bands,
		Depths:  q.depths,
		Cost:    q.cost,
	})
}

// UnmarshalJSON implements json.Unmarshaler, validating the grid with the
// same checks the constructor applies.
func (q *QDTT) UnmarshalJSON(data []byte) error {
	var raw qdttJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("cost: decoding QDTT: %w", err)
	}
	if raw.Version == 1 {
		return fmt.Errorf("cost: QDTT format version 1: recalibrate: the band-1 row is now block-shaped")
	}
	if raw.Version != qdttFormatVersion {
		return fmt.Errorf("cost: QDTT format version %d, want %d", raw.Version, qdttFormatVersion)
	}
	loaded, err := safeNewQDTT(raw.Bands, raw.Depths, raw.Cost)
	if err != nil {
		return err
	}
	*q = *loaded
	return nil
}

// safeNewQDTT converts the constructor's panics on malformed grids into
// errors, for data arriving from outside the process.
func safeNewQDTT(bands []int64, depths []int, cost [][]float64) (q *QDTT, err error) {
	defer func() {
		if r := recover(); r != nil {
			q, err = nil, fmt.Errorf("cost: invalid QDTT grid: %v", r)
		}
	}()
	return NewQDTT(bands, depths, cost), nil
}
