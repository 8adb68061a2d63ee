package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/darco"
	"repro/internal/timing"
)

// Client is the darco-serve API client. It implements
// darco.RemoteExecutor, so installing it on a Session
// (darco.WithRemote) turns every local tool into a thin front-end of a
// remote server:
//
//	cl := serve.NewClient("http://darco-serve:8080")
//	sess := darco.NewSession(darco.WithRemote(cl))
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Tenant is sent as the fair-queuing class of every submission
	// that does not name its own ("" = the server default).
	Tenant string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// StatusError is a non-2xx API response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Code, e.Msg)
}

// IsOverloaded reports whether err is the server's 429 admission
// rejection — the signal to back off and retry.
func IsOverloaded(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusTooManyRequests
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// do performs one JSON request; non-2xx responses decode into
// StatusError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("serve: marshal request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), body)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeStatusError(resp)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve: decode response: %w", err)
	}
	return nil
}

func decodeStatusError(resp *http.Response) error {
	var ae apiError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ae); err != nil || ae.Error == "" {
		ae.Error = resp.Status
	}
	return &StatusError{Code: resp.StatusCode, Msg: ae.Error}
}

// Submit enqueues one job. The client's Tenant is applied when the
// request names none.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
	var resp SubmitResponse
	err := c.do(ctx, http.MethodPost, "/jobs", &req, &resp)
	return resp, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists job statuses; tenant, when non-empty, filters.
func (c *Client) Jobs(ctx context.Context, tenant string) ([]JobStatus, error) {
	path := "/jobs"
	if tenant != "" {
		path += "?" + url.Values{"tenant": {tenant}}.Encode()
	}
	var out []JobStatus
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Cancel stops a queued or running job and returns its status at the
// moment the cancel was accepted. The server refuses (409) once the
// job is terminal.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/jobs/"+id+"/cancel", nil, &st)
	return st, err
}

// Delete removes a completed job from the server's registry and
// returns its final status. The server refuses (409) while the job is
// queued or running.
func (c *Client) Delete(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st)
	return st, err
}

// Health fetches the server health report.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// StoreList enumerates the server's persistent store.
func (c *Client) StoreList(ctx context.Context) ([]json.RawMessage, error) {
	var out []json.RawMessage
	err := c.do(ctx, http.MethodGet, "/store", nil, &out)
	return out, err
}

// Events streams the job's progress events, replay first, then live,
// calling fn for each; it returns when the job reaches a terminal
// event, the stream ends, or ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(WireEvent)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/jobs/"+id+"/events"), nil)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeStatusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // blank separators and SSE comments
		}
		var ev WireEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("serve: bad event %q: %w", data, err)
		}
		if fn != nil {
			fn(ev)
		}
		if ev.Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: event stream: %w", err)
	}
	return nil
}

// ResultRaw fetches the job's terminal Record bytes exactly as the
// server serves them (wait blocks until the job finishes).
func (c *Client) ResultRaw(ctx context.Context, id string, wait bool) ([]byte, error) {
	path := "/jobs/" + id + "/result"
	if wait {
		path += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeStatusError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("serve: read result: %w", err)
	}
	return raw, nil
}

// Result fetches and decodes the job's terminal Record.
func (c *Client) Result(ctx context.Context, id string, wait bool) (*darco.Record, error) {
	raw, err := c.ResultRaw(ctx, id, wait)
	if err != nil {
		return nil, err
	}
	var rec darco.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return nil, fmt.Errorf("serve: decode record: %w", err)
	}
	return &rec, nil
}

// RunRemote implements darco.RemoteExecutor: submit the reference with
// the resolved config, relay the remote event stream, and return the
// finished result. Used via darco.WithRemote.
func (c *Client) RunRemote(ctx context.Context, ref string, scale float64, cfg darco.Config, events func(darco.Event)) (*darco.Result, error) {
	resp, err := c.Submit(ctx, SubmitRequest{Workload: ref, Scale: scale, Config: &cfg})
	if err != nil {
		return nil, err
	}
	// A locally abandoned run must not keep burning a remote worker:
	// when ctx dies before the job settles, best-effort cancel it on
	// the server (off ctx, which is already dead).
	stop := context.AfterFunc(ctx, func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = c.Cancel(cctx, resp.ID)
	})
	defer stop()
	if events != nil {
		// The stream ends at the job's terminal event; a broken stream
		// only loses observability, the result fetch below still
		// settles the run.
		_ = c.Events(ctx, resp.ID, func(wev WireEvent) {
			if ev, ok := wireToEvent(wev); ok {
				events(ev)
			}
		})
	}
	rec, err := c.Result(ctx, resp.ID, true)
	if err != nil {
		return nil, err
	}
	if rec.Error != "" {
		return nil, fmt.Errorf("serve: remote run of %s failed: %s", ref, rec.Error)
	}
	if rec.Result == nil {
		return nil, fmt.Errorf("serve: remote run of %s returned no result", ref)
	}
	return rec.Result, nil
}

// wireToEvent decodes a WireEvent back into the darco event form.
func wireToEvent(wev WireEvent) (darco.Event, bool) {
	kind, err := darco.ParseEventKind(wev.Kind)
	if err != nil {
		return darco.Event{}, false
	}
	mode, err := timing.ParseMode(wev.Mode)
	if err != nil {
		return darco.Event{}, false
	}
	ev := darco.Event{Job: wev.Job, Mode: mode, Kind: kind, Cycles: wev.Cycles}
	if wev.Error != "" {
		ev.Err = errors.New(wev.Error)
	}
	return ev, true
}

// compile-time check: Client executes jobs for remote Sessions.
var _ darco.RemoteExecutor = (*Client)(nil)
