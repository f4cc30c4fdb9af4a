package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// mutateValue saves m, lets edit change the first range element's bounds
// in the JSON document, and returns the edited document.
func mutateValue(t testing.TB, m *Model, edit func(v map[string]any, width int)) []byte {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range doc["segments"].([]any) {
		seg := s.(map[string]any)
		for _, v := range seg["values"].([]any) {
			val := v.(map[string]any)
			if val["lo"] != val["hi"] {
				edit(val, int(seg["width"].(float64)))
				out, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
		}
	}
	t.Fatal("model has no range element")
	return nil
}

// TestLoadRejectsMalformedValueRanges checks uploaded models cannot carry
// value ranges the decoder would wrap (Lo > Hi) or truncate (Hi above the
// segment's maximum value).
func TestLoadRejectsMalformedValueRanges(t *testing.T) {
	m, _ := buildTestModel(t, 2000, 5, Options{})
	cases := map[string]func(v map[string]any, width int){
		"lo>hi": func(v map[string]any, _ int) { v["lo"], v["hi"] = 5, 1 },
		"hi>max": func(v map[string]any, width int) {
			v["hi"] = uint64(1) << (4 * uint(width))
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(mutateValue(t, m, edit)))
			if err == nil || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("Load accepted a malformed range: err = %v", err)
			}
		})
	}
}

// FuzzLoad feeds arbitrary model documents through Load and a short
// Generate: an uploaded model must either be rejected with an error or
// generate, never panic. The seeds are a valid model and the malformed
// ranges Load rejects.
func FuzzLoad(f *testing.F) {
	m, err := Build(testNetwork(300, 2), Options{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(mutateValue(f, m, func(v map[string]any, _ int) { v["lo"], v["hi"] = 5, 1 }))
	f.Add(mutateValue(f, m, func(v map[string]any, w int) { v["hi"] = uint64(1) << (4 * uint(w)) }))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = m.Generate(GenerateOptions{Count: 100, Seed: 1, Workers: 1})
	})
}
