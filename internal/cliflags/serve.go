package cliflags

import (
	"flag"
	"time"

	"repro/internal/core"
	"repro/internal/prompt"
	"repro/internal/serve"
)

// Serve holds the online-serving flag group after parsing. It is the
// flag surface of internal/serve: llmserve registers it to expose
// POST /v1/query, and the lowered serve.Config keeps the CLI and the
// library defaults in lockstep the same way Exec does for execution.
type Serve struct {
	Enabled      bool
	Window       time.Duration
	MaxQueue     int
	RetryAfter   time.Duration
	TenantBudget int
	Method       string
	Labeled      int
	M            int
	Workers      int
	Compress     int
	TargetTokens int
}

// Register installs the serving flag group on fs. Call before
// fs.Parse; the receiver's fields carry the parsed values afterwards.
func (s *Serve) Register(fs *flag.FlagSet) {
	fs.BoolVar(&s.Enabled, "serve", false, "expose the online multi-tenant query tier at POST /v1/query")
	fs.DurationVar(&s.Window, "batch-window", serve.DefaultWindow, "micro-batching window: concurrent queries arriving within it coalesce into one shared MQO plan")
	fs.IntVar(&s.MaxQueue, "serve-queue", serve.DefaultMaxQueue, "admission-queue high-water mark; requests past it are rejected with 429 + Retry-After")
	fs.DurationVar(&s.RetryAfter, "serve-retry-after", serve.DefaultRetryAfter, "Retry-After hint attached to backpressure rejections")
	fs.IntVar(&s.TenantBudget, "serve-tenant-budget", 0, "per-tenant delivered-token quota; over-budget tenants are rejected with 429 (0 = unlimited)")
	fs.StringVar(&s.Method, "serve-method", "sns", "neighbor-selection method behind /v1/query (vanilla, 1-hop, 2-hop, sns)")
	fs.IntVar(&s.Labeled, "serve-labeled", 20, "labeled nodes per class seeding the serving context")
	fs.IntVar(&s.M, "serve-m", 4, "neighbors included per prompt by the serving tier")
	fs.IntVar(&s.Workers, "serve-workers", 4, "concurrent LLM queries per coalesced window")
	// Same flag names as the Exec group on purpose: no command registers
	// both groups (llmserve owns its exec-ish flags itself), and keeping
	// one spelling means scenarios, docs and muscle memory transfer.
	fs.IntVar(&s.Compress, "compress", 0, "prompt-compression level 1..3 applied inside the micro-batch window (0 = off; versions the prompt-cache namespace)")
	fs.IntVar(&s.TargetTokens, "target-tokens", 0, "per-query compressed token budget for served prompts (0 = level caps only; implies -compress 1)")
}

// ServeNames lists every flag Serve.Register installs, for the same
// usage-parity testing Names() gives the execution group.
func ServeNames() []string {
	return []string{
		"serve", "batch-window", "serve-queue", "serve-retry-after",
		"serve-tenant-budget", "serve-method", "serve-labeled",
		"serve-m", "serve-workers", "compress", "target-tokens",
	}
}

// Config lowers the flag group into the serve-tier configuration.
// Exec carries only the window-execution knobs the group owns; callers
// layer caches, pools or fallbacks on top before serve.New.
func (s *Serve) Config() serve.Config {
	return serve.Config{
		Window:       s.Window,
		MaxQueue:     s.MaxQueue,
		RetryAfter:   s.RetryAfter,
		TenantBudget: s.TenantBudget,
		Exec: core.ExecConfig{
			Workers:  s.Workers,
			Compress: prompt.Compressor{Level: s.Compress, TargetTokens: s.TargetTokens},
		},
	}
}
