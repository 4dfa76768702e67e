package trace

import (
	"bytes"
	"strings"
	"testing"
)

const goodDoc = `{"v":1,"kind":"ltsim-trace","replicas":2,"trials":3,"horizon_hours":1000,"source":"test"}
{"trial":0,"t":10.5,"replica":1,"event":"fault","fault":"latent"}
{"trial":0,"t":40,"replica":1,"event":"access"}
{"trial":0,"t":55,"replica":1,"event":"repair"}
{"trial":2,"t":5,"replica":0,"event":"fault","fault":"visible","planted":true}
`

func TestParseGood(t *testing.T) {
	tr, err := ParseString(goodDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Header.Replicas != 2 || tr.Header.Trials != 3 || tr.Header.HorizonHours != 1000 {
		t.Fatalf("header = %+v", tr.Header)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(tr.Events))
	}
	if ev := tr.Events[3]; ev.Trial != 2 || !ev.Planted || ev.Fault != FaultVisible {
		t.Fatalf("event 3 = %+v", ev)
	}
}

func TestParseSkipsBlankLines(t *testing.T) {
	doc := strings.ReplaceAll(goodDoc, "\n{\"trial\":2", "\n\n{\"trial\":2")
	tr, err := ParseString(doc)
	if err != nil {
		t.Fatalf("Parse with blank line: %v", err)
	}
	if len(tr.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(tr.Events))
	}
}

func TestTrialEvents(t *testing.T) {
	tr, err := ParseString(goodDoc)
	if err != nil {
		t.Fatal(err)
	}
	byTrial := [][]Event{tr.TrialEvents(0), tr.TrialEvents(1), tr.TrialEvents(2)}
	if len(byTrial[0]) != 3 || len(byTrial[1]) != 0 || len(byTrial[2]) != 1 {
		t.Fatalf("per-trial lengths = %d,%d,%d", len(byTrial[0]), len(byTrial[1]), len(byTrial[2]))
	}
	if byTrial[2][0].T != 5 {
		t.Fatalf("trial 2 event = %+v", byTrial[2][0])
	}
	for _, evs := range byTrial {
		for _, ev := range evs[:cap(evs)] {
			if ev.Trial != evs[0].Trial {
				t.Fatalf("a trial's slice reaches into trial %d", ev.Trial)
			}
		}
	}
}

func TestWriteRoundTrip(t *testing.T) {
	tr, err := ParseString(goodDoc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if tr2.Header != tr.Header {
		t.Fatalf("header round-trip: %+v vs %+v", tr2.Header, tr.Header)
	}
	if len(tr2.Events) != len(tr.Events) {
		t.Fatalf("event count round-trip: %d vs %d", len(tr2.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr2.Events[i] != tr.Events[i] {
			t.Fatalf("event %d round-trip: %+v vs %+v", i, tr2.Events[i], tr.Events[i])
		}
	}
}

func TestParseRejects(t *testing.T) {
	header := `{"v":1,"kind":"ltsim-trace","replicas":2,"trials":3,"horizon_hours":1000}`
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"empty", "", "empty input"},
		{"bad version", `{"v":2,"kind":"ltsim-trace","replicas":2,"trials":3,"horizon_hours":1000}`, "unsupported version"},
		{"bad kind", `{"v":1,"kind":"other","replicas":2,"trials":3,"horizon_hours":1000}`, "kind"},
		{"zero replicas", `{"v":1,"kind":"ltsim-trace","replicas":0,"trials":3,"horizon_hours":1000}`, "replicas"},
		{"zero trials", `{"v":1,"kind":"ltsim-trace","replicas":2,"trials":0,"horizon_hours":1000}`, "trials"},
		{"bad horizon", `{"v":1,"kind":"ltsim-trace","replicas":2,"trials":3,"horizon_hours":0}`, "horizon_hours"},
		{"unknown header field", `{"v":1,"kind":"ltsim-trace","replicas":2,"trials":3,"horizon_hours":1000,"extra":1}`, "unknown field"},
		{"unknown event field", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"access","x":1}`, "unknown field"},
		{"unknown event kind", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"boom"}`, "unknown event kind"},
		{"fault without class", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"fault"}`, "fault event needs"},
		{"repair with class", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"repair","fault":"latent"}`, "must not carry"},
		{"planted access", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"access","planted":true}`, "must not be planted"},
		{"trial out of range", header + "\n" + `{"trial":3,"t":1,"replica":0,"event":"access"}`, "trial index out of range"},
		{"replica out of range", header + "\n" + `{"trial":0,"t":1,"replica":2,"event":"access"}`, "out of range"},
		{"negative time", header + "\n" + `{"trial":0,"t":-1,"replica":0,"event":"access"}`, "outside"},
		{"time past horizon", header + "\n" + `{"trial":0,"t":1001,"replica":0,"event":"access"}`, "outside"},
		{"descending trial", header + "\n" + `{"trial":1,"t":1,"replica":0,"event":"access"}` + "\n" + `{"trial":0,"t":1,"replica":0,"event":"access"}`, "ascending trial"},
		{"descending time", header + "\n" + `{"trial":0,"t":5,"replica":0,"event":"access"}` + "\n" + `{"trial":0,"t":4,"replica":0,"event":"access"}`, "non-decreasing"},
		{"trailing garbage", header + "\n" + `{"trial":0,"t":1,"replica":0,"event":"access"} junk`, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.doc)
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLongSourceRoundTrips: a source at the length limit, written with
// every byte escaped six-fold, still parses back; one byte more is
// rejected, so Write never emits a line Parse cannot read.
func TestLongSourceRoundTrips(t *testing.T) {
	header := func(n int) string {
		return `{"v":1,"kind":"ltsim-trace","replicas":1,"trials":1,"horizon_hours":10,"source":"` + strings.Repeat("<", n) + `"}`
	}
	tr, err := ParseString(header(maxSource))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(&buf); err != nil {
		t.Errorf("written %d-byte source does not parse back: %v", maxSource, err)
	}
	if _, err := ParseString(header(maxSource + 1)); err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("Parse of a %d-byte source = %v, want the length limit", maxSource+1, err)
	}
}

func TestTimesMayRepeatAcrossTrials(t *testing.T) {
	doc := `{"v":1,"kind":"ltsim-trace","replicas":1,"trials":2,"horizon_hours":10}
{"trial":0,"t":9,"replica":0,"event":"access"}
{"trial":1,"t":1,"replica":0,"event":"access"}
`
	if _, err := ParseString(doc); err != nil {
		t.Fatalf("time reset across trials rejected: %v", err)
	}
}
