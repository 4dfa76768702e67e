package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/sim"
)

// parseRun runs ltsim's request flags over args as main does: parse,
// resolve -bias, then finish.
func parseRun(t *testing.T, args ...string) (service.EstimateRequest, error) {
	t.Helper()
	fs := flag.NewFlagSet("ltsim", flag.ContinueOnError)
	rf := bindRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var err error
	if rf.req.Bias, err = sim.ParseBias(rf.bias); err != nil {
		return rf.req, err
	}
	err = rf.finish()
	return rf.req, err
}

// TestFlagsToRequest pins the request body each flag set puts on the
// wire. The bodies were captured from `ltsim -server` before the flags
// were bound straight to the request, so a binding that drops, renames
// or reorders a field shows up here.
func TestFlagsToRequest(t *testing.T) {
	const uniform = `{"replicas":2,"visible_mean_hours":1400000,"latent_mean_hours":280000,"repair_visible_hours":0.3333333333333333,"repair_latent_hours":0.3333333333333333,"scrubs_per_year":3,"alpha":1,`
	const uniform3 = `{"replicas":3,"visible_mean_hours":1400000,"latent_mean_hours":280000,"repair_visible_hours":0.3333333333333333,"repair_latent_hours":0.3333333333333333,"scrubs_per_year":3,"alpha":1,`
	hazardFile := filepath.Join(t.TempDir(), "bathtub.json")
	if err := os.WriteFile(hazardFile, []byte(`{"kind":"bathtub","burn_in_hours":8760,"burn_in_factor":4,"wear_onset_hours":43800,"wear_factor":8,"normalize_hours":87600}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"defaults", nil, uniform + `"trials":1000,"seed":1}`},
		{"uniform", []string{"-alpha", "0.5", "-trials", "300", "-horizon", "20", "-seed", "7"},
			`{"replicas":2,"visible_mean_hours":1400000,"latent_mean_hours":280000,"repair_visible_hours":0.3333333333333333,"repair_latent_hours":0.3333333333333333,"scrubs_per_year":3,"alpha":0.5,"trials":300,"horizon_years":20,"seed":7}`},
		{"adaptive", []string{"-target-rel", "0.2", "-horizon", "50", "-max-trials", "20000"},
			uniform + `"horizon_years":50,"seed":1,"target_rel_width":0.2,"max_trials":20000}`},
		{"adaptive explicit trials", []string{"-target-rel", "0.2", "-horizon", "50", "-max-trials", "20000", "-trials", "500"},
			uniform + `"trials":500,"horizon_years":50,"seed":1,"target_rel_width":0.2,"max_trials":20000}`},
		{"ml inf", []string{"-ml", "inf", "-mv", "1000", "-mrv", "10", "-scrubs-per-year", "0", "-trials", "100", "-horizon", "1"},
			`{"replicas":2,"visible_mean_hours":1000,"latent_mean_hours":-1,"repair_visible_hours":10,"repair_latent_hours":0.3333333333333333,"scrubs_per_year":0,"alpha":1,"trials":100,"horizon_years":1,"seed":1}`},
		{"replica fleet", []string{"-replica", "consumer", "-replica", "enterprise", "-replica", "mv=2e6,ml=4e5,scrubs=12,repair=1,label=nas", "-trials", "200", "-horizon", "10"},
			`{"scrubs_per_year":3,"alpha":1,"fleet":[{"label":"consumer-disk","visible_mean_hours":603549.425932655,"latent_mean_hours":120709.885186531,"scrubs_per_year":3,"repair_hours":0.8547008547008548},{"label":"enterprise-disk","visible_mean_hours":1437988.8256117268,"latent_mean_hours":287597.76512234536,"scrubs_per_year":3,"repair_hours":0.477124183006536},{"label":"nas","visible_mean_hours":2000000,"latent_mean_hours":400000,"scrubs_per_year":12,"repair_hours":1}],"trials":200,"horizon_years":10,"seed":1}`},
		{"hazard inline", []string{"-hazard", `{"kind":"weibull","shape":2,"scale_hours":50000}`, "-horizon", "10", "-trials", "200"},
			uniform + `"hazard":{"kind":"weibull","shape":2,"scale_hours":50000},"trials":200,"horizon_years":10,"seed":1}`},
		{"hazard file", []string{"-hazard", "@" + hazardFile, "-horizon", "10", "-trials", "200"},
			uniform + `"hazard":{"kind":"bathtub","burn_in_hours":8760,"burn_in_factor":4,"wear_onset_hours":43800,"wear_factor":8,"normalize_hours":87600},"trials":200,"horizon_years":10,"seed":1}`},
		{"bias auto", []string{"-replicas", "3", "-horizon", "10", "-bias", "auto", "-trials", "400"},
			uniform3 + `"trials":400,"horizon_years":10,"seed":1,"bias":-1}`},
		{"bias 250", []string{"-replicas", "3", "-horizon", "10", "-bias", "250", "-trials", "400"},
			uniform3 + `"trials":400,"horizon_years":10,"seed":1,"bias":250}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := parseRun(t, tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("request body\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestBuildRequestZeroFlagOrder: with two bad flags of one pair, finish
// reports the first in declaration order every time, not whichever a
// map iteration happens to visit first. An infinite repair time is
// refused by its flag's name, not by the wire field it would become.
func TestBuildRequestZeroFlagOrder(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mv", "0", "-ml", "0", "-mrv", "1", "-mrl", "1"}, "-mv must be positive (or inf to disable the channel)"},
		{[]string{"-mv", "1", "-ml", "1", "-mrv", "0", "-mrl", "0"}, "-mrv must be positive"},
		{[]string{"-mrv", "inf", "-mrl", "inf"}, "-mrv must be positive and finite"},
		{[]string{"-mrl", "inf"}, "-mrl must be positive and finite"},
	} {
		for i := 0; i < 100; i++ {
			_, err := parseRun(t, tc.args...)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("run %d: finish error = %v, want %q", i, err, tc.want)
			}
		}
	}
}

// TestMain runs ltsim's main instead of the tests when LTSIM_RUN_MAIN is
// set, so a test can check a command line's exit status and stderr by
// running the test binary itself.
func TestMain(m *testing.M) {
	if os.Getenv("LTSIM_RUN_MAIN") != "" {
		os.Args = append([]string{"ltsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusedFlagValues: a value the wire would read as "use the
// default" (-replicas 0) or "channel disabled" (a negative mean) is
// refused with exit status 2 and a message naming the flag, before
// anything runs; inf still disables a channel, and -replicas is ignored
// beside a -replica fleet.
func TestRefusedFlagValues(t *testing.T) {
	const mvMsg, mlMsg = "-mv must be positive (or inf to disable the channel)", "-ml must be positive (or inf to disable the channel)"
	for _, tc := range []struct {
		args string
		code int
		msg  string
	}{
		{"-replicas 0", 2, "-replicas must be at least 1"},
		{"-replicas -3", 2, "-replicas must be at least 1"},
		{"-mv -5", 2, mvMsg},
		{"-mv NaN", 2, mvMsg},
		{"-ml -5", 2, mlMsg},
		{"-ml nan", 2, mlMsg},
		{"-mv -5 -server http://127.0.0.1:1", 2, mvMsg},
		{"-ml inf", 0, ""},
		{"-replica consumer -replicas 0", 0, ""},
	} {
		args := append(strings.Fields(tc.args), "-trials", "50", "-horizon", "1", "-json")
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "LTSIM_RUN_MAIN=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		if exit, ok := err.(*exec.ExitError); ok {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if code != tc.code || !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("ltsim %s: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr.String(), tc.code, tc.msg)
		}
	}
}
