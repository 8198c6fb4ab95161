package obs

import (
	"strconv"
	"strings"
)

// ParsePrometheus parses a text-exposition payload into a flat
// series → value map, where a series is the sample name with its label
// set verbatim (e.g. `plane_onehop_latency_ns{quantile="0.5"}`). Comment
// and malformed lines are skipped — the parser is the scrape side of
// WritePrometheus, used by the lab harness to fold a fleet's /metrics
// into one timeline, and it tolerates any exposition-format producer.
func ParsePrometheus(data []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	return out
}
