package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// recorded is the deterministic outcome of one workload on one seed:
// the checks a later change must not move. The values for the recorded
// seeds live in recorded.json.
type recorded struct {
	Accuracy float64 `json:"accuracy"`
	Tokens   int     `json:"tokens"`
	Rounds   int     `json:"rounds"`
	// Schedule fingerprints serve-zipf's arrival schedule.
	Schedule string `json:"schedule,omitempty"`
}

//go:embed recorded.json
var recordedJSON []byte

// recordedFor returns the recorded outcome of workload on seed, if that
// seed is one of the recorded ones.
func recordedFor(workload string, seed uint64) (recorded, bool) {
	var all map[string]map[string]recorded
	if err := json.Unmarshal(recordedJSON, &all); err != nil {
		panic("recorded.json: " + err.Error())
	}
	v, ok := all[workload][strconv.FormatUint(seed, 10)]
	return v, ok
}
