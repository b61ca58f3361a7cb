package exp

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func smallResultSet(t *testing.T) *ResultSet {
	t.Helper()
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 2})
	rs, err := s.RunExperimentsContext(context.Background(), []string{"table1", "fig4"}, Progress{})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestResultSetJSON(t *testing.T) {
	rs := smallResultSet(t)
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ResultSet
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back.Experiments) != 2 || back.Experiments[1].ID != "fig4" {
		t.Errorf("round-tripped experiments wrong: %+v", back.Experiments)
	}
	if len(back.Sims) != 8 {
		t.Errorf("round-tripped %d sim records, want 8", len(back.Sims))
	}
	if back.Seed != 7 || back.Scale != 0.05 {
		t.Errorf("metadata lost: seed %d scale %g", back.Seed, back.Scale)
	}
}

func TestResultSetCSV(t *testing.T) {
	rs := smallResultSet(t)
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + one row per simulation (fig4 runs 8).
	if len(rows) != 1+8 {
		t.Fatalf("CSV has %d rows, want 9", len(rows))
	}
	if rows[0][0] != "key" || rows[0][len(rows[0])-1] != "overrides" {
		t.Errorf("CSV header wrong: %v", rows[0])
	}
	for i, row := range rows[1:] {
		if len(row) != len(csvHeader) {
			t.Errorf("row %d has %d cells, want %d", i, len(row), len(csvHeader))
		}
	}
}

func TestSimRecordOverridesColumn(t *testing.T) {
	s := NewSuite(Options{Scale: 0.05, Seed: 7, Workers: 2})
	if _, err := s.RunConfig(s.mshrConfig(2)); err != nil {
		t.Fatal(err)
	}
	recs := s.SimRecords()
	if len(recs) != 1 {
		t.Fatalf("have %d records, want 1", len(recs))
	}
	if !strings.Contains(recs[0].Overrides, "L1MSHRs:2") {
		t.Errorf("override sweep value missing from record: %q", recs[0].Overrides)
	}
}

func TestSimRecordsSortedAndPopulated(t *testing.T) {
	rs := smallResultSet(t)
	prev := ""
	for _, r := range rs.Sims {
		if r.Key <= prev {
			t.Errorf("sim records not sorted: %q after %q", r.Key, prev)
		}
		prev = r.Key
		if r.Cycles <= 0 || r.EIPC <= 0 || r.Threads < 1 {
			t.Errorf("sim record unpopulated: %+v", r)
		}
		if r.Scale != 0.05 || r.Seed != 7 {
			t.Errorf("sim record has wrong scale/seed: %+v", r)
		}
	}
}
