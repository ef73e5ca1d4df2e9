package chaos

import (
	"errors"
	"strings"
	"testing"
)

func TestRetryStormSmoke(t *testing.T) {
	for _, e := range StormEngines() {
		for _, adv := range []bool{false, true} {
			name, adv := e.Name, adv
			sub := name
			if adv {
				sub += "/adversarial"
			}
			t.Run(sub, func(t *testing.T) {
				crashes, err := RetryStorm(name, Options{Ops: 6, Stride: 29, Adversarial: adv})
				if err != nil {
					t.Errorf("%s adversarial=%v: %v", name, adv, err)
				}
				if crashes == 0 {
					t.Errorf("%s adversarial=%v: no crash points explored", name, adv)
				}
			})
		}
	}
}

func TestCheckStormPoint(t *testing.T) {
	// A real point and a point past the workload's end (vacuously fine).
	if err := CheckStormPoint("detect-redodb", Options{Ops: 4}, 33); err != nil {
		t.Fatalf("point 33: %v", err)
	}
	if err := CheckStormPoint("detect-redodb", Options{Ops: 4}, 1<<40); err != nil {
		t.Fatalf("huge point: %v", err)
	}
	if err := CheckStormPoint("nope", Options{Ops: 4}, 1); err == nil {
		t.Fatal("unknown engine did not fail")
	}
}

func TestPointErrorCoordinates(t *testing.T) {
	err := pointErr("detect-redodb", Options{Seed: 7}, 120, 0, errors.New("boom"))
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatal("pointErr did not produce a *PointError")
	}
	if pe.Engine != "detect-redodb" || pe.Seed != 7 || pe.First != 120 || pe.Second != 0 {
		t.Fatalf("coordinates = %+v", pe)
	}
	if s := err.Error(); !strings.Contains(s, "seed 7") || !strings.Contains(s, "crash point 120") {
		t.Fatalf("Error() = %q", s)
	}
	pair := pointErr("x", Options{Adversarial: true, Seed: 2}, 3, 4, errors.New("boom"))
	if s := pair.Error(); !strings.Contains(s, "crash pair (3,4)") || !strings.Contains(s, "adversarial") {
		t.Fatalf("pair Error() = %q", s)
	}
}
