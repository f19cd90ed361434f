"""denoparse: weakly supervised semantic parsing over tables.

Learns to map table questions to executable programs from answers alone:
beam search over a small SQL-like program space, optionally shaped by a
lexical critique policy, trained with a generalized update whose
(intensity, competing distribution) pair subsumes marginal-likelihood,
policy-gradient and margin-based learning.
"""

__version__ = "0.1.0"

from .tables import (AnswerSet, Cell, Example, Table, exact_match, jaccard,
                     load_dataset, load_table)
from .programs import (Action, Program, ProgramState, enumerate_programs, execute,
                       is_spurious, legal_actions, parse, serialize)
from .scorer import ParamVector, featurize, score
from .critique import (Lexicon, co_occur_score, critique_policy, default_lexicon,
                       load_lexicon, match_score, shape)
from .search import Candidate, CandidateSet, SearchConfig, beam_search, rank_key
from .updates import (UpdateSpec, exploration_distribution, generalized_update,
                      make_context, parse_update_spec, sample_from)
from .training import (TrainConfig, TrainHistory, evaluate, spurious_audit,
                       stability, train)
from .synth import SynthConfig, generate_corpus, measure_ambiguity, write_corpus
