package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/darco"
	"repro/internal/store"
)

// countingStore is the session's view of a store with its traffic
// counted. A hit also rewrites the entry with a renamed record
// (plant), so a later read of the same entry by anyone returns bytes
// that differ from those the session was handed.
type countingStore struct {
	st         *store.Store
	gets, puts atomic.Int32
}

func (c *countingStore) GetRaw(key string) (json.RawMessage, bool, error) {
	c.gets.Add(1)
	raw, ok, err := c.st.GetRaw(key)
	if ok {
		if perr := plant(c.st, key, raw); perr != nil {
			return nil, false, perr
		}
	}
	return raw, ok, err
}

func (c *countingStore) PutRaw(key string, raw json.RawMessage) error {
	c.puts.Add(1)
	return c.st.PutRaw(key, raw)
}

// plant overwrites the entry of key with the record of raw under
// another benchmark name: a valid entry whose bytes differ from raw.
func plant(st *store.Store, key string, raw json.RawMessage) error {
	planted := bytes.Replace(raw, []byte(`"benchmark":"`), []byte(`"benchmark":"planted-`), 1)
	if bytes.Equal(planted, raw) {
		return fmt.Errorf("record of %q names no benchmark", key)
	}
	return st.PutRaw(key, planted)
}

// TestServedCellStoreTraffic pins the store traffic of one served
// cell: a cold cell misses once and writes once, a memo-warm re-submit
// touches the store not at all, and a store-warm cell on a restarted
// server reads its entry once. Every phase serves the cold run's bytes.
// After the cold run the entry on disk is planted with different
// bytes, and every store hit plants it again, so a result body read
// from disk a second time shows as a byte difference.
func TestServedCellStoreTraffic(t *testing.T) {
	ctx := context.Background()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := func() (*countingStore, *Client) {
		cs := &countingStore{st: st}
		srv := NewServer(Config{Workers: 1, Store: st})
		srv.sess = darco.NewSession(darco.WithWorkers(1), darco.WithStore(cs))
		ts := httptest.NewServer(srv)
		t.Cleanup(func() {
			ts.Close()
			_ = srv.Shutdown(ctx)
		})
		return cs, NewClient(ts.URL)
	}
	fetch := func(phase string, c *Client, cs *countingStore, gets, puts int32) ([]byte, string) {
		t.Helper()
		resp := submitTiny(t, c, "synthetic:470.lbm")
		raw, err := c.ResultRaw(ctx, resp.ID, true)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if g, p := cs.gets.Load(), cs.puts.Load(); g != gets || p != puts {
			t.Errorf("%s: %d GetRaw and %d PutRaw, want %d and %d", phase, g, p, gets, puts)
		}
		cs.gets.Store(0)
		cs.puts.Store(0)
		return raw, resp.Key
	}

	cs, c := start()
	cold, key := fetch("cold", c, cs, 1, 1)
	if err := plant(st, key, cold); err != nil {
		t.Fatal(err)
	}
	if memo, _ := fetch("memo-warm", c, cs, 0, 0); !bytes.Equal(memo, cold) {
		t.Errorf("memo-warm result differs from the cold run's (%d vs %d bytes)", len(memo), len(cold))
	}

	if err := st.PutRaw(key, cold); err != nil {
		t.Fatal(err)
	}
	cs, c = start()
	if warm, _ := fetch("store-warm", c, cs, 1, 0); !bytes.Equal(warm, cold) {
		t.Errorf("store-warm result differs from the cold run's (%d vs %d bytes)", len(warm), len(cold))
	}
}

// TestRecordBodiesDeclareLength: the result and store-entry endpoints
// declare their body length, so a client sizes one buffer for it.
func TestRecordBodiesDeclareLength(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Workers: 1, Store: st})
	resp := submitTiny(t, c, "synthetic:462.libquantum")
	for _, path := range []string{"/jobs/" + resp.ID + "/result?wait=1", "/store/" + resp.Addr} {
		r, err := http.Get(c.url(path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, r.StatusCode, err)
		}
		if r.ContentLength != int64(len(body)) || r.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Errorf("GET %s: Content-Length %d (%q) for a %d-byte body", path, r.ContentLength, r.Header.Get("Content-Length"), len(body))
		}
	}
}

// stubClient is a Client of a handler that stands in for the server.
func stubClient(t *testing.T, h http.HandlerFunc) *Client {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestResultRawBodies: a body of undeclared length (chunked) is read
// in full, and one that ends before its declared length is an error,
// never a truncated record.
func TestResultRawBodies(t *testing.T) {
	ctx := context.Background()
	payload := bytes.Repeat([]byte(`{"benchmark":"x"} `), 4000)
	chunked := stubClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload[:1000])
		w.(http.Flusher).Flush()
		w.Write(payload[1000:])
	})
	got, err := chunked.ResultRaw(ctx, "j-1", true)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("chunked body: %d of %d bytes, err %v", len(got), len(payload), err)
	}

	short := stubClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload[:len(payload)/2])
	})
	got, err = short.ResultRaw(ctx, "j-1", true)
	if !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
		t.Fatalf("short body: %d bytes, err %v; want no bytes and io.ErrUnexpectedEOF", len(got), err)
	}
}

// TestEventsLongLine: an event line longer than the scanner's initial
// buffer still parses.
func TestEventsLongLine(t *testing.T) {
	msg := strings.Repeat("e", 16<<10)
	c := stubClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		b, _ := json.Marshal(WireEvent{Seq: 1, Job: "x", Mode: "shared", Kind: "failed", Error: msg})
		fmt.Fprintf(w, "data: {\"seq\":0,\"job\":\"x\",\"mode\":\"shared\",\"kind\":\"queued\"}\n\ndata: %s\n\n", b)
	})
	var got []WireEvent
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Events(ctx, "j-1", func(ev WireEvent) { got = append(got, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Kind != "failed" || got[1].Error != msg {
		t.Fatalf("got %d events, want queued then a failed event carrying the %d-byte error", len(got), len(msg))
	}
}
