// main_test.go covers the command line: the exact flag set the binary
// offers, and startup flag validation — every flag whose runtime behavior
// would be undefined (negative intervals panic time.NewTicker, a zero WAL
// cap reads as "no limit" but means "default") must fail fast with an error
// naming the flag.
package main

import (
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFlagSet pins the names `tauserve -h` lists. Every other setting is a
// package default the binary serves; a new knob is a deliberate edit here.
func TestFlagSet(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	want := []string{
		"addr", "tcp-addr", "preset", "max-series", "buffer-limit",
		"feedback-ring", "auto-recalib", "state-dir", "flush-interval",
		"checkpoint-interval", "wal-max-bytes", "store-retry-attempts",
		"store-retry-base", "breaker-threshold", "breaker-probe",
		"fault-inject", "max-inflight", "admission-queue", "request-timeout",
		"read-timeout", "write-timeout", "drain-timeout", "drain-grace",
		"debug-addr",
	}
	// -h prints the usage and exits non-zero (flag.ErrHelp), so only the
	// output is checked.
	out, _ := exec.Command(buildServeBinary(t), "-h").CombinedOutput()
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllSubmatch(out, -1) {
		got = append(got, string(m[1]))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("tauserve -h lists %d flags %v,\nwant %d %v\n%s", len(got), got, len(want), want, out)
	}
}

// validFlags is a baseline that passes validation; each case perturbs one
// field.
func validFlags() serveFlagValues {
	return serveFlagValues{
		flushInterval:      time.Second,
		checkpointInterval: time.Minute,
		walMaxBytes:        1 << 20,
		storeRetryAttempts: 3,
		storeRetryBase:     10 * time.Millisecond,
		breakerProbe:       5 * time.Second,
		readTimeout:        time.Minute,
		writeTimeout:       time.Minute,
		drainTimeout:       10 * time.Second,
	}
}

func TestValidateServeFlags(t *testing.T) {
	if err := validateServeFlags(validFlags()); err != nil {
		t.Fatalf("baseline flags rejected: %v", err)
	}
	cases := []struct {
		name     string
		mutate   func(*serveFlagValues)
		wantFlag string
	}{
		{"negative flush interval", func(v *serveFlagValues) { v.flushInterval = -time.Second }, "-flush-interval"},
		{"negative checkpoint interval", func(v *serveFlagValues) { v.checkpointInterval = -time.Minute }, "-checkpoint-interval"},
		{"zero wal max bytes", func(v *serveFlagValues) { v.walMaxBytes = 0 }, "-wal-max-bytes"},
		{"negative retry attempts", func(v *serveFlagValues) { v.storeRetryAttempts = -1 }, "-store-retry-attempts"},
		{"negative retry base", func(v *serveFlagValues) { v.storeRetryBase = -time.Millisecond }, "-store-retry-base"},
		{"negative breaker probe", func(v *serveFlagValues) { v.breakerProbe = -time.Second }, "-breaker-probe"},
		{"negative max inflight", func(v *serveFlagValues) { v.maxInflight = -1 }, "-max-inflight"},
		{"negative admission queue", func(v *serveFlagValues) { v.admissionQueue = -1 }, "-admission-queue"},
		{"negative request timeout", func(v *serveFlagValues) { v.requestTimeout = -time.Second }, "-request-timeout"},
		{"negative read timeout", func(v *serveFlagValues) { v.readTimeout = -time.Second }, "-read-timeout"},
		{"negative write timeout", func(v *serveFlagValues) { v.writeTimeout = -time.Second }, "-write-timeout"},
		{"negative drain timeout", func(v *serveFlagValues) { v.drainTimeout = -time.Second }, "-drain-timeout"},
		{"negative drain grace", func(v *serveFlagValues) { v.drainGrace = -time.Second }, "-drain-grace"},
		{"fault inject without state dir", func(v *serveFlagValues) { v.faultInject = true }, "-fault-inject"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := validFlags()
			tc.mutate(&v)
			err := validateServeFlags(v)
			if err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(err.Error(), tc.wantFlag) {
				t.Fatalf("error %q does not name %s", err, tc.wantFlag)
			}
		})
	}
	// Negative wal-max-bytes and fault-inject with a state dir are valid.
	v := validFlags()
	v.walMaxBytes = -1
	v.faultInject = true
	v.stateDir = "/tmp/state"
	if err := validateServeFlags(v); err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
}
