package rme

import "encoding/json"

// JSON shapes for the observability snapshots, so a monitoring pipeline
// (or rmebench's -stats flag) can dump a table's state without writing
// its own adapters. The snapshot structs carry explicit json tags: field
// names are stable snake_case (safe to rename Go fields later), backends
// marshal as their String() names rather than bare ints, and the derived
// wakes-per-op ratio is included so dashboards need no client-side
// arithmetic.

// MarshalJSON encodes the backend as its String() name ("flat", "tree",
// "mcs", "auto").
func (b ShardBackend) MarshalJSON() ([]byte, error) {
	return json.Marshal(b.String())
}

// MarshalJSON encodes the stripe snapshot under its json tags with the
// derived wakes-per-op ratio appended.
func (s ShardStats) MarshalJSON() ([]byte, error) {
	type fields ShardStats // no methods, so Marshal does not recurse here
	return json.Marshal(struct {
		fields
		WakesPerOp float64 `json:"wakes_per_op"`
	}{fields(s), s.WakesPerOp()})
}

// MarshalJSON encodes the whole table snapshot: the per-stripe array, the
// Total() aggregate, the supervision's counters, and the dispatcher
// pool's gauges.
func (ts TableStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Shards     []ShardStats    `json:"shards"`
		Total      ShardStats      `json:"total"`
		Supervisor SupervisorStats `json:"supervisor"`
		Dispatcher DispatcherStats `json:"dispatcher"`
	}{ts.Shards, ts.Total(), ts.Supervisor, ts.Dispatcher})
}
