package cost

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestQDTTJSONRoundTrip(t *testing.T) {
	orig := sampleQDTT()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var loaded QDTT
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	for _, band := range []int64{1, 50, 100, 5050, 10000, 99999} {
		for _, depth := range []int{1, 3, 8, 32} {
			if got, want := loaded.PageCost(band, depth), orig.PageCost(band, depth); got != want {
				t.Errorf("PageCost(%d,%d) = %f after round trip, want %f", band, depth, got, want)
			}
		}
	}
}

func TestQDTTUnmarshalRejectsBadData(t *testing.T) {
	cases := []string{
		`not json`,
		`{"version": 3, "bands": [1], "depths": [1], "cost_us_per_page": [[1]]}`,
		`{"version": 2, "bands": [], "depths": [1], "cost_us_per_page": [[]]}`,
		`{"version": 2, "bands": [2, 1], "depths": [1], "cost_us_per_page": [[1, 1]]}`,
		`{"version": 2, "bands": [1], "depths": [1, 1], "cost_us_per_page": [[1], [1]]}`,
		`{"version": 2, "bands": [1], "depths": [1], "cost_us_per_page": [[-5]]}`,
		`{"version": 2, "bands": [1, 2], "depths": [1], "cost_us_per_page": [[1]]}`,
	}
	for _, raw := range cases {
		var m QDTT
		if err := json.Unmarshal([]byte(raw), &m); err == nil {
			t.Errorf("unmarshal of %q succeeded", raw)
		}
	}
}

func TestQDTTJSONIncludesVersion(t *testing.T) {
	data, err := json.Marshal(sampleQDTT())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":2`) {
		t.Errorf("serialized form lacks version: %s", data)
	}
}

// TestQDTTRejectsVersionOne: a version-1 file is well-formed, and loading it
// would price every full scan with a band-1 row measured in the wrong shape.
// It is refused, and the error says what to do about it.
func TestQDTTRejectsVersionOne(t *testing.T) {
	data, err := json.Marshal(sampleQDTT())
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(string(data), `"version":2`, `"version":1`, 1)
	var m QDTT
	err = json.Unmarshal([]byte(v1), &m)
	if err == nil {
		t.Fatal("a version-1 model file loaded")
	}
	if want := "recalibrate: the band-1 row is now block-shaped"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}
