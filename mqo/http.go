package mqo

import (
	"net/http"

	"repro/internal/llm"
)

// HTTPConfig configures an OpenAI-compatible chat-completions client
// (base URL, model, API key, timeout). The client makes one call per
// query; retries are the batch executor's (BatchConfig.MaxRetries,
// ExecConfig.MaxRetries).
type HTTPConfig = llm.HTTPConfig

// HTTPPredictor queries an OpenAI-compatible endpoint. It implements
// Predictor, so every optimization in this package runs unchanged
// against a real deployment.
type HTTPPredictor = llm.HTTPPredictor

// APIError is an HTTP failure with its status code and the server's
// Retry-After hint.
type APIError = llm.APIError

// NewHTTPPredictor builds the HTTP client. Swap it for NewSim to move
// the same pipeline from simulation to production:
//
//	p, err := mqo.NewHTTPPredictor(mqo.HTTPConfig{
//	    BaseURL: "https://api.openai.com",
//	    Model:   "gpt-3.5-turbo",
//	    APIKey:  os.Getenv("OPENAI_API_KEY"),
//	})
func NewHTTPPredictor(cfg HTTPConfig) (*HTTPPredictor, error) {
	return llm.NewHTTPPredictor(cfg)
}

// NewSimHandler serves a simulated LLM behind the OpenAI-compatible
// endpoint (see cmd/llmserve for a ready binary).
func NewSimHandler(sim *Sim) http.Handler { return llm.NewHandler(sim) }
