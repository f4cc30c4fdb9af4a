package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"entropyip/internal/core"
	"entropyip/internal/ip6"
	"entropyip/internal/mining"
	"entropyip/internal/serve"
)

// putTrainBody is the PUT /v1/models/{name} body that trains server-side.
func putTrainBody(addrs []ip6.Addr) ([]byte, error) {
	text := make([]string, len(addrs))
	buf := make([]byte, 0, 40)
	for i, a := range addrs {
		buf = a.AppendString(buf[:0])
		text[i] = string(buf)
	}
	return json.Marshal(serve.PutModelRequest{Addresses: text})
}

// putTrain uploads a training set; the server trains and stores a new
// version, which it returns.
func putTrain(ctx context.Context, hc *http.Client, url, model string, body []byte) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "PUT", url+"/v1/models/"+model, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("PUT %s: %w", model, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("PUT %s: %w", model, err)
	}
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("PUT %s: status %d: %s", model, resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serve.PutModelResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return 0, fmt.Errorf("PUT %s: %w", model, err)
	}
	if !out.Trained {
		return 0, fmt.Errorf("PUT %s: server did not train", model)
	}
	return out.Info.Version, nil
}

// browse runs one conditional-probability-browser query.
func browse(ctx context.Context, hc *http.Client, url, model string, version int, ev core.Evidence) (*serve.BrowseResponse, error) {
	body, err := json.Marshal(serve.BrowseRequest{Version: version, Evidence: ev})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/models/"+model+"/browse", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("browse %s: %w", model, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("browse %s: %w", model, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("browse %s: status %d: %s", model, resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serve.BrowseResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("browse %s: %w", model, err)
	}
	return &out, nil
}

// hashAddrs is the SHA-256 of a candidate stream: each address's 16
// bytes, in order.
func hashAddrs(addrs []ip6.Addr) [32]byte {
	h := sha256.New()
	chunk := make([]byte, 0, 64<<10)
	for _, a := range addrs {
		chunk = append(chunk, a[:]...)
		if len(chunk) == cap(chunk) {
			h.Write(chunk)
			chunk = chunk[:0]
		}
	}
	h.Write(chunk)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// reference generates a stream in process, as the daemon should have.
func reference(m *core.Model, count int, seed int64, ev core.Evidence) ([]ip6.Addr, error) {
	out := make([]ip6.Addr, 0, count)
	err := m.GenerateStream(core.GenerateOptions{Count: count, Seed: seed, Evidence: ev}, func(a ip6.Addr) bool {
		out = append(out, a)
		return true
	})
	return out, err
}

// firstDuplicate returns a repeated address of the stream, if any.
func firstDuplicate(addrs []ip6.Addr) (ip6.Addr, bool) {
	s := slices.Clone(addrs)
	slices.SortFunc(s, func(a, b ip6.Addr) int { return a.Compare(b) })
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i], true
		}
	}
	return ip6.Addr{}, false
}

// evidenceCodes resolves evidence into per-segment code indices (-1 where
// the segment is free), for the re-encode check.
func evidenceCodes(m *core.Model, ev core.Evidence) ([]int, error) {
	want := make([]int, len(m.Segments))
	for i := range want {
		want[i] = -1
	}
	for label, code := range ev {
		idx, sm, ok := m.SegmentByLabel(label)
		if !ok {
			return nil, fmt.Errorf("unknown segment %q", label)
		}
		found := -1
		for k, v := range sm.Values {
			if v.Code == code {
				found = k
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("segment %q has no code %q", label, code)
		}
		want[idx] = found
	}
	return want, nil
}

// checkEvidence re-encodes every candidate and returns the first one whose
// constrained segments do not encode to the evidence codes.
func checkEvidence(enc *mining.CompiledEncoder, want []int, addrs []ip6.Addr) (ip6.Addr, bool) {
	vec := make([]int, enc.NumSegments())
	for _, a := range addrs {
		enc.EncodeInto(vec, a)
		for i, w := range want {
			if w >= 0 && vec[i] != w {
				return a, false
			}
		}
	}
	return ip6.Addr{}, true
}

// topEvidence fixes the first k segments to the codes the address encodes
// to.
func topEvidence(m *core.Model, a ip6.Addr, k int) (core.Evidence, error) {
	if k > len(m.Segments) {
		k = len(m.Segments)
	}
	labels := make([]string, k)
	for i := range labels {
		labels[i] = m.Segments[i].Seg.Label
	}
	return m.EvidenceFromAddr(a, labels...)
}
