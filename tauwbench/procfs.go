package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime, in seconds, from the content of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may hold
// spaces or parentheses itself, so fields are counted from the last ')'.
func parseStatCPU(b []byte) (float64, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("stat: no command field")
	}
	// After ") " come fields 3 (state) onwards; utime and stime are fields
	// 14 and 15, i.e. indexes 11 and 12 of the remainder.
	f := bytes.Fields(b[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// parseStatusKB returns a "<key>: <n> kB" line's value from the content of
// /proc/<pid>/status.
func parseStatusKB(b []byte, key string) (int64, error) {
	prefix := []byte(key + ":")
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status %s: malformed line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// processCPU reads a process's utime+stime in seconds.
func processCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// processRSS reads a process's resident set size (VmRSS) in kB.
func processRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmRSS")
}

// parseHostCPU returns the steal ticks and the total ticks of the "cpu"
// line of /proc/stat (user nice system idle iowait irq softirq steal ...):
// the share of time the hypervisor gave this guest's CPUs to other guests.
func parseHostCPU(b []byte) (steal, total int64, err error) {
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("stat: malformed cpu line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("stat cpu field %d: %w", i+1, err)
		}
		// guest and guest_nice (fields 9 and 10) are already in user and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// hostCPU reads the host-wide steal and total CPU ticks.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(b)
}

// parseMetrics parses a Prometheus text exposition into a map from series
// (name plus label set, exactly as exposed) to value. Comment and blank
// lines are skipped; a sample line must end in a parseable value.
func parseMetrics(b []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values in this exposition
		// never hold spaces, but a closing brace marks the series end anyway.
		i := bytes.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[string(bytes.TrimSpace(line[:i]))] = v
	}
	return out, nil
}

// metricsDelta is the change of scraped counters across a measured window.
type metricsDelta struct {
	before, after map[string]float64
}

// diff is after minus before for one series (0 when either side lacks it).
func (d metricsDelta) diff(series string) float64 {
	a, okA := d.after[series]
	b, okB := d.before[series]
	if !okA || !okB {
		return 0
	}
	return a - b
}

// stageMean is the mean duration of one stage over the window, in the given
// unit (1e6 for µs, 1e3 for ms), from the stage histogram's _sum and _count;
// 0 when the stage never ran inside the window.
func (d metricsDelta) stageMean(stage string, unit float64) float64 {
	n := d.diff(`tauw_stage_duration_seconds_count{stage="` + stage + `"}`)
	if n == 0 {
		return 0
	}
	return d.diff(`tauw_stage_duration_seconds_sum{stage="`+stage+`"}`) / n * unit
}
