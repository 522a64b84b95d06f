"""Prompt optimization by beam search over LLM-edited candidates.

Candidates grow from natural-language "gradients" (reasons the current prompt
behaves as it does), a momentum pool of past gradients steers refinement, and
a UCB bandit prunes each round down to the beam width. Scripted and replay
backends make every run reproducible offline.
"""

from .bandit import ArmState, SelectionResult, select, ucb_value
from .data import DatasetSpec, DatasetSplit, Example, load, make_split
from .gateway import (
    Gateway,
    GatewayError,
    LiveBackend,
    LiveConfig,
    LlmRequest,
    LlmResponse,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
)
from .gradients import GradientEngine, TemplateSet, parse_delimited, render
from .model import (
    BanditConfig,
    Beam,
    ConfigError,
    Gradient,
    GradientHistory,
    Prompt,
    PromptStore,
    RunConfig,
    new_seed_prompt,
)
from .scoring import evaluate_prompt, f1
from .scripted import HeuristicScript
from .search import (
    ConvergenceReport,
    MetricEvent,
    RunResult,
    detect_convergence,
    expected_calls_per_round,
    run,
)

__version__ = "0.1.0"
