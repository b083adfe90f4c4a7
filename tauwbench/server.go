package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// readyTimeout bounds one set-up: calibration takes about a second, so a
// server that is not ready after this long has failed.
const readyTimeout = 60 * time.Second

// readyPoll is the /readyz polling interval during set-up.
const readyPoll = 5 * time.Millisecond

// stopTimeout bounds a graceful drain (durable-batch writes its final
// checkpoint of every open series in it) before the process is killed.
const stopTimeout = 60 * time.Second

// server is one running tauserve process.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	stateDir string
	exited   chan struct{}
	exitErr  error
}

// freeAddr reserves a loopback port and releases it for the server.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts the prebuilt tauserve binary with the tiny preset and waits
// for its first 200 from /readyz; the returned duration runs from exec to
// that answer. With stateDir set the server is durable and the directory is
// emptied first, so every set-up opens, recovers and checkpoints the same
// (empty) state. The server's log goes to logPath.
func launch(bin, stateDir, logPath string) (*server, time.Duration, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-preset", "tiny", "-addr", httpAddr, "-tcp-addr", wireAddr}
	if stateDir != "" {
		if err := os.RemoveAll(stateDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, 0, err
		}
		args = append(args, "-state-dir", stateDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness itself be killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{
		Timeout:   time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, httpAddr: httpAddr, wireAddr: wireAddr, stateDir: stateDir, exited: make(chan struct{})}
	go func() {
		s.exitErr = cmd.Wait()
		close(s.exited)
	}()
	url := "http://" + httpAddr + "/readyz"
	for {
		resp, err := probe.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("tauserve exited during set-up (%v); log in %s", s.exitErr, logPath)
		case <-time.After(readyPoll):
		}
		if time.Since(start) > readyTimeout {
			s.kill()
			return nil, 0, fmt.Errorf("tauserve not ready after %v; log in %s", readyTimeout, logPath)
		}
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM (tauserve drains and, when durable, writes its final
// checkpoint) and waits for the exit; a server still running after
// stopTimeout is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
		return s.exitErr
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("tauserve did not drain within %v", stopTimeout)
	}
}

// kill ends the process immediately and waits for it; safe after exit.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// scraper fetches /metrics on its own connection, apart from the load.
type scraper struct {
	url    string
	client *http.Client
}

func newScraper(s *server) *scraper {
	return &scraper{
		url:    "http://" + s.httpAddr + "/metrics",
		client: &http.Client{Timeout: 10 * time.Second},
	}
}

func (sc *scraper) scrape() (map[string]float64, error) {
	resp, err := sc.client.Get(sc.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(b)
}

// snapshot is the server and harness state at one window edge.
type snapshot struct {
	serverCPU float64 // s, utime+stime
	clientCPU float64 // s, this process's user+system time
	// steal and total are the machine's steal and total CPU ticks, printed
	// as the share of the window other guests took from this one.
	steal, total int64
	metrics      map[string]float64
}

func clientCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func (s *server) snapshot(sc *scraper) (snapshot, error) {
	cpu, err := processCPU(s.pid())
	if err != nil {
		return snapshot{}, err
	}
	snap := snapshot{serverCPU: cpu, clientCPU: clientCPU()}
	if snap.steal, snap.total, err = hostCPU(); err != nil {
		return snapshot{}, err
	}
	if sc != nil {
		if snap.metrics, err = sc.scrape(); err != nil {
			return snapshot{}, err
		}
	}
	return snap, nil
}

// rssSampler records the server's peak VmRSS while a window runs; its
// fields belong to the sampling goroutine until done closes.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // kB
	n    int
	err  error
}

// rssInterval is the VmRSS sampling period inside a measured window.
const rssInterval = 50 * time.Millisecond

func (s *server) sampleRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			kb, err := processRSS(s.pid())
			if err != nil && r.err == nil {
				r.err = err
			}
			r.peak = max(r.peak, kb)
			r.n++
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops sampling and returns the peak in MB.
func (r *rssSampler) finish() (float64, int, error) {
	close(r.stop)
	<-r.done
	return float64(r.peak) / 1024, r.n, r.err
}

// runDir returns the harness's scratch directory for one workload, inside
// the checkout's build directory.
func runDir(workdir, name string) (string, error) {
	dir := filepath.Join(workdir, name)
	return dir, os.MkdirAll(dir, 0o755)
}
