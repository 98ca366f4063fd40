package trace

import "bebop/internal/telemetry"

// Replay counters. Readers accumulate locally on the decode path and
// flush on Close, so the per-frame cost of telemetry is two integer
// adds.
var (
	mFrames = telemetry.Default.Counter("bebop_trace_frames_total",
		"Trace frames decoded by replay readers.")
	mPayloadBytes = telemetry.Default.Counter("bebop_trace_payload_bytes_total",
		"Frame payload bytes read by replay readers.")
)
