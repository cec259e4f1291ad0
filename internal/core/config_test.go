package alf

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// Validate must reject each class of nonsense with ErrConfig and a
// message naming the offending field, and both constructors must
// surface the rejection.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // expected substring in the error
	}{
		{"negative rate", Config{RateBps: -1}, "RateBps"},
		{"negative MTU", Config{MTU: -10}, "MTU"},
		{"MTU equals header", Config{MTU: HeaderSize}, "MTU"},
		{"MTU below header", Config{MTU: HeaderSize - 1}, "MTU"},
		{"negative NackDelay", Config{NackDelay: -time.Millisecond}, "NackDelay"},
		{"negative NackInterval", Config{NackInterval: -1}, "NackInterval"},
		{"negative HoldTime", Config{HoldTime: -time.Second}, "HoldTime"},
		{"negative HeartbeatInterval", Config{HeartbeatInterval: -1}, "HeartbeatInterval"},
		{"negative HeartbeatMaxInterval", Config{HeartbeatMaxInterval: -1}, "HeartbeatMaxInterval"},
		{"negative ADUDeadline", Config{ADUDeadline: -1}, "ADUDeadline"},
		{"negative FeedbackInterval", Config{FeedbackInterval: -1}, "FeedbackInterval"},
		{"negative ShedBacklog", Config{ShedBacklog: -1}, "ShedBacklog"},
		{"negative MaxNacks", Config{MaxNacks: -1}, "MaxNacks"},
		{"negative MaxADU", Config{MaxADU: -1}, "MaxADU"},
		{"negative BufferLimit", Config{BufferLimit: -1}, "BufferLimit"},
		{"negative HeartbeatLimit", Config{HeartbeatLimit: -1}, "HeartbeatLimit"},
		{"negative FECGroup", Config{FECGroup: -1}, "FECGroup"},
		{"ShedLossFrac below 0", Config{ShedLossFrac: -0.1}, "ShedLossFrac"},
		{"ShedLossFrac above 1", Config{ShedLossFrac: 1.5}, "ShedLossFrac"},
		{"RecoveryFrac below 0", Config{RecoveryFrac: -0.5}, "RecoveryFrac"},
		{"RecoveryFrac above 1", Config{RecoveryFrac: 2}, "RecoveryFrac"},
		{"controller without feedback", Config{RateBps: 1e6, Controller: &AIMD{}}, "FeedbackInterval"},
		{"controller without pacing", Config{FeedbackInterval: 50 * time.Millisecond, Controller: &AIMD{}}, "RateBps"},
		{"key without an enciphering suite", Config{Key: 0xC0FFEE}, "Key"},
		{"enciphering suite without a key", Config{Suite: SuiteScramble}, "Key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("Validate() = %v, want ErrConfig", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %q", err, tc.field)
			}

			// Both constructors must refuse the same config.
			s := sim.NewScheduler()
			if _, err := NewSender(s, func([]byte) error { return nil }, tc.cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("NewSender accepted invalid config: %v", err)
			}
			if _, err := NewReceiver(s, nil, tc.cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("NewReceiver accepted invalid config: %v", err)
			}
		})
	}
}

// Zero values are defaults, not errors; a fully zero config and a
// sensible closed-loop config must both validate.
func TestConfigValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero config", Config{}},
		{"fixed rate", Config{RateBps: 5e6}},
		{"feedback without controller", Config{FeedbackInterval: 50 * time.Millisecond}},
		{"closed loop", Config{
			RateBps:          5e6,
			FeedbackInterval: 50 * time.Millisecond,
			Controller:       &AIMD{Floor: 1e5, Ceil: 1e7},
			ShedBacklog:      100 * time.Millisecond,
			ShedLossFrac:     0.25,
			RecoveryFrac:     0.25,
		}},
		{"frac bounds inclusive", Config{ShedLossFrac: 1, RecoveryFrac: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
		})
	}
}

// MaxNacks cannot be validated against zero (zero means the default
// 10, applied by fill); the constructor path documents that contract.
func TestConfigZeroMaxNacksTakesDefault(t *testing.T) {
	s := sim.NewScheduler()
	snd, err := NewSender(s, func([]byte) error { return nil }, Config{Policy: SenderBuffered})
	if err != nil {
		t.Fatal(err)
	}
	if got := snd.cfg.MaxNacks; got != 10 {
		t.Errorf("MaxNacks default = %d, want 10", got)
	}
}
