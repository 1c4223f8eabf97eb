package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"

	"across/internal/ftl"
	"across/internal/sim"
)

// resultDoc is the digest of a sim.Result that acrossd stores and serves
// for a replay job (the same fields under the same JSON names). The
// benchmark builds it from Results it computes itself, so a daemon result
// can be compared field by field with a direct computation, and hashes it
// to prove that rounds repeat exactly.
type resultDoc struct {
	Scheme   string `json:"scheme"`
	Requests int64  `json:"requests"`
	Reads    int64  `json:"reads"`
	Writes   int64  `json:"writes"`

	AvgReadMs  float64 `json:"avg_read_ms"`
	AvgWriteMs float64 `json:"avg_write_ms"`
	ReadP50Ms  float64 `json:"read_p50_ms"`
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP50Ms float64 `json:"write_p50_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
	TotalIOMs  float64 `json:"total_io_ms"`

	Counters   ftl.Counters    `json:"counters"`
	Wear       sim.WearSummary `json:"wear"`
	TableBytes int64           `json:"table_bytes"`
	UtilMin    float64         `json:"utilisation_min"`
	UtilMax    float64         `json:"utilisation_max"`

	TraceSpanMs    float64 `json:"trace_span_ms"`
	MeasuredSpanMs float64 `json:"measured_span_ms"`
	WarmupWrites   int64   `json:"warmup_writes"`

	AcrossAreas     int64   `json:"across_areas,omitempty"`
	AcrossRollbacks float64 `json:"across_rollback_ratio,omitempty"`
}

func resultDocOf(res *sim.Result) resultDoc {
	umin, umax := res.UtilisationSpread()
	d := resultDoc{
		Scheme:         res.Scheme,
		Requests:       res.Requests,
		Reads:          res.ReadCount,
		Writes:         res.WriteCount,
		AvgReadMs:      res.AvgReadLatency(),
		AvgWriteMs:     res.AvgWriteLatency(),
		ReadP50Ms:      res.ReadLat.P50(),
		ReadP99Ms:      res.ReadLat.P99(),
		WriteP50Ms:     res.WriteLat.P50(),
		WriteP99Ms:     res.WriteLat.P99(),
		TotalIOMs:      res.TotalIOTime(),
		Counters:       res.Counters,
		Wear:           res.Wear,
		TableBytes:     res.TableBytes,
		UtilMin:        umin,
		UtilMax:        umax,
		TraceSpanMs:    res.TraceSpanMs,
		MeasuredSpanMs: res.MeasuredSpanMs,
		WarmupWrites:   res.WarmupWrites,
	}
	if res.Across != nil {
		d.AcrossAreas = res.Across.AreasTouched()
		d.AcrossRollbacks = res.Across.RollbackRatio()
	}
	return d
}

// digest hashes a sequence of values through their JSON encoding.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Results hold only numbers and strings; a failure is a bug here.
		panic(err)
	}
	d.h.Write(data)
	d.h.Write([]byte{'\n'})
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
