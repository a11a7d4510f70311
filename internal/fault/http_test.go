package fault

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestConnPlanRoundTrip(t *testing.T) {
	cases := []string{
		"refuse@0+0",
		"refuse@2+5",
		"hole@0+0",
		"hole@1+3",
		"refuse@0+2;flip@100.3;slow@0+500",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
	if _, err := Parse("refuse@5"); err == nil {
		t.Fatal("refuse without +len must not parse")
	}
}

// transportPair is a live server plus a fault transport client aimed
// at it.
func transportPair(t *testing.T) (host string, cli *http.Client, ft *Transport) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	t.Cleanup(ts.Close)
	ft = NewTransport(nil)
	return ts.Listener.Addr().String(), &http.Client{Transport: ft}, ft
}

func get(cli *http.Client, host string) error {
	resp, err := cli.Get("http://" + host + "/")
	if err != nil {
		return err
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return err
}

func TestTransportRefuseWindow(t *testing.T) {
	host, cli, ft := transportPair(t)

	// refuse@1+2: request 0 passes, 1 and 2 refused, 3+ pass again.
	plan, err := Parse("refuse@1+2")
	if err != nil {
		t.Fatal(err)
	}
	ft.Set(host, plan)
	for i, wantErr := range []bool{false, true, true, false, false} {
		err := get(cli, host)
		if wantErr != (err != nil) {
			t.Fatalf("request %d: err=%v, want error=%v", i, err, wantErr)
		}
		if wantErr && !errors.Is(err, ErrInjected) {
			t.Fatalf("request %d: %v does not match ErrInjected", i, err)
		}
	}
}

func TestTransportPartitionAndHeal(t *testing.T) {
	host, cli, ft := transportPair(t)

	ft.Partition(host)
	if err := get(cli, host); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned request: %v, want injected fault", err)
	}
	// The partition is unbounded: still refused many requests later.
	for i := 0; i < 5; i++ {
		if err := get(cli, host); err == nil {
			t.Fatalf("request %d crossed the partition", i)
		}
	}
	ft.Heal(host)
	if err := get(cli, host); err != nil {
		t.Fatalf("healed request: %v", err)
	}
	// Set resets the request counter: a fresh refuse@0+1 fires on the
	// very next request even though the host served traffic before.
	ft.Set(host, Plan{Ops: []Op{{Kind: Refuse, Len: 1}}})
	if err := get(cli, host); err == nil {
		t.Fatal("counter did not reset with the new plan")
	}
	if err := get(cli, host); err != nil {
		t.Fatalf("request past the refuse window: %v", err)
	}
}

func TestTransportBlackholeHonoursContext(t *testing.T) {
	host, cli, ft := transportPair(t)
	ft.Set(host, Plan{Ops: []Op{{Kind: Blackhole}}})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+host+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := cli.Do(req); err == nil {
		t.Fatal("blackholed request succeeded")
	}
	if d := time.Since(start); d < 40*time.Millisecond || d > 5*time.Second {
		t.Fatalf("blackhole held the request %v, want ~ctx deadline", d)
	}
}

func TestTransportBodyFaultsStillApply(t *testing.T) {
	host, cli, ft := transportPair(t)
	// Conn ops and body ops share one plan: request 0 refused, then
	// every body truncated to 3 bytes.
	plan, err := Parse("refuse@0+1;trunc@3")
	if err != nil {
		t.Fatal(err)
	}
	ft.Set(host, plan)
	if err := get(cli, host); err == nil {
		t.Fatal("first request should be refused")
	}
	resp, err := cli.Get("http://" + host + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "pay" {
		t.Fatalf("truncated body = %q, %v; want \"pay\"", body, err)
	}
}
