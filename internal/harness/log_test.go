package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestLoggerFormats covers the -log-format / -log-level helper.
func TestLoggerFormats(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("info record emitted at warn level")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("json handler emitted non-JSON: %q", out)
	}
	if rec["msg"] != "shown" || rec["k"] != "v" {
		t.Errorf("record = %v", rec)
	}
	if _, err := NewLogger(&buf, "yaml", "info"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("unknown level accepted")
	}
}
