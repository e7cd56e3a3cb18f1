"""K-class answers on the one answer representation.

K-class answers are :class:`AnswerSet` rows with ``n_classes > 2``,
simulated, voted on and aggregated by the same functions as binary
ones.  Seeded K = 3 and K = 4 outputs are pinned to the values the
earlier dict-based multi-class implementation produced: simulated
answers, plurality labels, the generator state after each call and
Dawid–Skene labels are equal, and Dawid–Skene accuracies and
log-likelihoods agree within 1e-9.
"""

import hashlib

import numpy as np
import pytest

from repro.crowd.aggregation import (
    dawid_skene,
    glad,
    majority_vote,
    weighted_majority_vote,
)
from repro.crowd.answer_model import AnswerSet, simulate_answers
from repro.crowd.quality import plurality_accuracy
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.utils.rng import as_rng
from tests.crowd_reference import answer_dicts

MARKET = generate_market(SyntheticConfig(n_workers=12, n_tasks=8), seed=3)


def _world(n_tasks=150, n_classes=4, seed=0):
    """Five workers of known accuracy answer every task."""
    rng = np.random.default_rng(seed)
    accuracies = [0.9, 0.85, 0.6, 0.55, 0.3]
    answers, truths = {}, {}
    for t in range(n_tasks):
        truth = int(rng.integers(n_classes))
        truths[t] = truth
        answers[t] = {}
        for w, a in enumerate(accuracies):
            if rng.random() < a:
                answers[t][w] = truth
            else:
                answers[t][w] = int(
                    (truth + rng.integers(1, n_classes)) % n_classes
                )
    return AnswerSet.from_dicts(answers, truths, n_classes), accuracies


class TestSimulate:
    def test_answers_in_range(self, tiny_market):
        edges = [(0, 0), (1, 0), (1, 1), (2, 0)]
        answers = simulate_answers(tiny_market, edges, seed=0, n_classes=4)
        assert answers.n_classes == 4
        assert set(answers.votes.tolist()) <= set(range(4))
        assert all(0 <= t < 4 for t in answers.truths.values())

    def test_n_classes_validation(self, tiny_market):
        rng = as_rng(0)
        before = rng.bit_generator.state
        for edges in ([], [(0, 0)]):
            with pytest.raises(ValidationError):
                simulate_answers(tiny_market, edges, seed=rng, n_classes=1)
        assert rng.bit_generator.state == before

    def test_bad_edge(self, tiny_market):
        with pytest.raises(ValidationError):
            simulate_answers(tiny_market, [(99, 0)], seed=0, n_classes=3)

    def test_deterministic(self, tiny_market):
        edges = [(0, 0), (1, 1)]
        a = simulate_answers(tiny_market, edges, seed=3, n_classes=5)
        b = simulate_answers(tiny_market, edges, seed=3, n_classes=5)
        assert answer_dicts(a) == answer_dicts(b)

    def test_correctness_rate_matches_accuracy(self, tiny_market):
        rng = np.random.default_rng(0)
        accuracy = tiny_market.accuracy_matrix()[0, 0]
        hits = 0
        trials = 2000
        for _ in range(trials):
            answers = simulate_answers(
                tiny_market, [(0, 0)], seed=rng, n_classes=4
            )
            hits += answers.votes[0] == answers.truths[0]
        assert hits / trials == pytest.approx(accuracy, abs=0.04)


class TestPluralityVote:
    def test_clear_plurality(self):
        answers = AnswerSet.from_dicts({0: {0: 2, 1: 2, 2: 0}}, n_classes=3)
        assert majority_vote(answers) == {0: 2}

    def test_tie_breaks_among_leaders(self):
        answers = AnswerSet.from_dicts({0: {0: 1, 1: 2}}, n_classes=3)
        outcomes = {majority_vote(answers, seed=s)[0] for s in range(50)}
        assert outcomes <= {1, 2}
        assert len(outcomes) == 2  # both leaders appear

    def test_never_picks_zero_vote_label(self):
        answers = AnswerSet.from_dicts({0: {0: 3, 1: 3, 2: 1}}, n_classes=5)
        for s in range(20):
            assert majority_vote(answers, seed=s)[0] == 3


class TestMulticlassDawidSkene:
    def test_empty(self):
        result = dawid_skene(AnswerSet(n_classes=3))
        assert result.labels == {}

    def test_recovers_labels(self):
        answers, _accuracies = _world(seed=1)
        result = dawid_skene(answers)
        accuracy = np.mean(
            [result.labels[t] == answers.truths[t] for t in answers.truths]
        )
        assert accuracy > 0.9

    def test_recovers_worker_ordering(self):
        answers, accuracies = _world(n_tasks=400, seed=2)
        result = dawid_skene(answers)
        estimated = [result.worker_accuracies[w] for w in range(5)]
        assert estimated[0] > estimated[2] > estimated[4]

    def test_likelihood_nondecreasing(self):
        answers, _ = _world(n_tasks=50, seed=3)
        previous = -np.inf
        for iterations in range(1, 6):
            result = dawid_skene(
                answers, max_iterations=iterations, tolerance=0.0
            )
            assert result.log_likelihood >= previous - 1e-9
            previous = result.log_likelihood

    def test_posteriors_normalized(self):
        answers, _ = _world(n_tasks=30, seed=4)
        result = dawid_skene(answers)
        for p in result.posteriors.values():
            assert len(p) == 4
            assert sum(p) == pytest.approx(1.0)

    def test_beats_plurality_with_spammer(self):
        answers, _ = _world(n_tasks=300, seed=5)
        ds = dawid_skene(answers).labels
        mv = majority_vote(answers, seed=0)
        ds_accuracy = np.mean(
            [ds[t] == answers.truths[t] for t in answers.truths]
        )
        mv_accuracy = np.mean(
            [mv[t] == answers.truths[t] for t in answers.truths]
        )
        assert ds_accuracy >= mv_accuracy - 0.01


class TestPluralityAccuracy:
    def test_empty_committee_guesses(self):
        assert plurality_accuracy([], 4) == 0.25

    def test_single_worker(self):
        value = plurality_accuracy([0.8], 4, n_samples=50_000)
        assert value == pytest.approx(0.8, abs=0.01)

    def test_binary_matches_closed_form(self):
        from repro.crowd.quality import majority_vote_accuracy

        accuracies = [0.8, 0.7, 0.65]
        mc = plurality_accuracy(accuracies, 2, n_samples=100_000)
        exact = majority_vote_accuracy(accuracies)
        assert mc == pytest.approx(exact, abs=0.01)

    def test_more_classes_help_plurality(self):
        """With symmetric noise, wrong votes split across more labels,
        so the correct label wins pluralities more easily."""
        accuracies = [0.5, 0.5, 0.5]
        two = plurality_accuracy(accuracies, 2, n_samples=40_000)
        eight = plurality_accuracy(accuracies, 8, n_samples=40_000)
        assert eight > two

    def test_validation(self):
        with pytest.raises(ValidationError):
            plurality_accuracy([0.5], 1)
        with pytest.raises(ValidationError):
            plurality_accuracy([1.5], 3)

    def test_deterministic(self):
        a = plurality_accuracy([0.7, 0.6], 3, n_samples=5000, seed=1)
        b = plurality_accuracy([0.7, 0.6], 3, n_samples=5000, seed=1)
        assert a == b


THREE_CLASSES = AnswerSet.from_dicts({0: {0: 1, 1: 0}}, n_classes=3)


class TestClassGuards:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: AnswerSet(n_classes=1),
            lambda: AnswerSet([0], [0], [3], n_classes=3),
            lambda: AnswerSet([0], [0], [-1], n_classes=3),
            lambda: weighted_majority_vote(THREE_CLASSES, {0: 0.9}),
            lambda: glad(THREE_CLASSES),
            lambda: dawid_skene(THREE_CLASSES, class_prior=(0.5, 0.5)),
            lambda: dawid_skene(THREE_CLASSES, class_prior=(0.5, 0.5, 0.0)),
        ],
        ids=[
            "one-class",
            "vote-above-range",
            "negative-vote",
            "weighted",
            "glad",
            "prior-length",
            "prior-zero",
        ],
    )
    def test_rejects(self, make):
        with pytest.raises(ValidationError):
            make()


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _edges(seed):
    picker = as_rng(100 + seed)
    return list(
        zip(
            picker.integers(0, MARKET.n_workers, 40).tolist(),
            picker.integers(0, MARKET.n_tasks, 40).tolist(),
        )
    )


# Recorded from the dict-based implementation: per (n_classes, seed),
# digests of the simulated rows + truths + generator state, of the
# plurality labels + generator state and of the Dawid-Skene labels,
# then Dawid-Skene's log-likelihood and per-worker accuracies.
SIMULATED = {
    (3, 0): (
        "74468c678b98f321e4962e47d542e6cd2a46d95768f2299c99a4222cc0057657",
        "c193051f43dfad1f0f69fbaccbb1d9e007e5f42786edaeca2d3277a1bae29b47",
        "ebe990a362c1951fbd65e49580d4a93721979b9e019676a990cdf8d9bb3db399",
        -27.15171663965795,
        [
            0.9999, 0.4999958325681767, 0.9999,
            0.9999, 0.9999, 0.0001,
            0.7499952531705524, 0.24996689205336586, 0.6666611120831006,
            0.9999, 0.9999, 0.7499973386402639,
        ],
    ),
    (3, 1): (
        "e7b930a90a9f3ae426b65fd1d1247cfa8faf597f0402c93989e863b19c35cfbd",
        "3a6d6a1e9f56ce5408073ec523418c73676a3871a6cd08be7c50be49a9137831",
        "f118cc2f6a0086682b9d6af1443ffcb753c44c75442bb1f86d00b9e5e69f89f5",
        -28.21229700845319,
        [
            0.9999, 0.0001, 0.9999,
            0.0001, 0.6666960942098997, 0.33334687410013825,
            0.5000023432738143, 0.0001, 0.9999,
            0.6666630344626102, 0.9999, 0.9999,
        ],
    ),
    (3, 2): (
        "4e5c96ff54fbe929c96cf51a1c2e193ecf5b515dd6ace08592f7e704ce6383a4",
        "7fca061d3bcb89552b91bf413552783b2ebad3f42cc7201b7e26ed1c4fa20907",
        "975e4fe679eb6c99d790256da13ae0a13c0f335a118b7d657bb4ae000e3cd15b",
        -28.350142532222588,
        [
            0.9999, 0.7499723880184006, 0.5000083350731735,
            0.9999, 0.9999, 0.6666750028232341,
            0.8000112535202714, 0.9999, 0.6666555523699349,
            0.9999, 0.0001, 0.6000051056158833,
        ],
    ),
    (4, 0): (
        "ef751a562c1a000b0dc2361ff6a96239be374fa47b86f2bdad5f79002f99ef6a",
        "839b41ad6c60224b06f906856ff262c1e0bda645ee019aeffc29c1f999608ae2",
        "c1c3fbfe2cadad6a8f4919a8853780077fe073acffc1eef8c30e4f12fe651620",
        -35.12959060047778,
        [
            0.9999, 0.49999984497549393, 0.9999,
            0.9999, 0.9999, 0.0001,
            0.5000189820932005, 0.24997623139892447, 0.6666586424125961,
            0.9999, 0.9999, 0.7500016976500616,
        ],
    ),
    (4, 1): (
        "ce53ed52cc238c6114f73725c835f12daedc5cc44d52c8a2b5046248b0d94c19",
        "be4131cb7c7613f0c258e0eeb0078a540ca30c4330a58940d885d08018404bd1",
        "9bdefedae161ac54ab58336b47a085ea46a01609b27645dbb7ec162f57fab0b2",
        -37.10022254064486,
        [
            0.9999, 0.0001, 0.9999,
            0.0001, 0.766939489470269, 0.36896809475585357,
            0.5000000000399838, 0.24995265311027695, 0.9999,
            0.9999, 0.9999, 0.5576574314690207,
        ],
    ),
    (4, 2): (
        "c0ffd25873a5b8504751ae03785b979952b4bd28534062cdf06e05feefcc6bce",
        "5dd26afa9a9e5547c586ba3c2c05216d934de4a02c076270db445baf6f62aaa1",
        "f8978f1c92b00fc57c9b72c2157158c084e63afdfaa393fd9cd6dbc4afb8139a",
        -34.30080723854215,
        [
            0.9999, 0.7499807048546575, 0.500005556742935,
            0.9999, 0.9999, 0.6666722238511754,
            0.8000079189647005, 0.9999, 0.6666596947053073,
            0.9999, 0.0001, 0.6000033804844307,
        ],
    ),
}
WORLDS = {
    (4, 0): (
        "50977aed939c9b5004c1c0a08065617afee52013b569cb8abea617434515d731",
        "003a0e18aa2fac1648a9afc59d76fa24a0cba2323656e878dc03d09ddc9ebcad",
        -871.4674184222825,
        [
            0.8841826316496878, 0.87396767887666, 0.696875086291638,
            0.5086326012674953, 0.211669974170254,
        ],
    ),
    (4, 1): (
        "27334cad6ecf6ef3e2fa9ba65bce657598be76c00a7120f34f15dc308b894735",
        "ddd2b766221d3c215e681548e2d7f912f331c22f8c2789c947e09becd1ae088c",
        -889.7653748153515,
        [
            0.9512497830439419, 0.8230023637316348, 0.5672669331110456,
            0.5257886218699409, 0.2919842883909146,
        ],
    ),
    (4, 2): (
        "37d2752effe12fff0de0ee915c9edb5194f5d2fba27a14443e3391687967dd1d",
        "1eb2f592a63b3ce415890bf411d0f04fe0ac21763aeded649f380f39bee5b2e3",
        -898.5591473457462,
        [
            0.8671382894001652, 0.8546683724316415, 0.5447782586891053,
            0.6094392320911262, 0.31041459938521104,
        ],
    ),
    (4, 3): (
        "2b8816493543a960cec9a8e47a46f7be458a9724be67637c33019b1012b4a0c6",
        "be3cb76c8e3afc757d76f2c7ed6060208a8a873152c60270b6f569bf61a7f374",
        -892.0341781405485,
        [
            0.908804052504827, 0.8683648076406365, 0.5783331121000291,
            0.5021980321659176, 0.25335618059834114,
        ],
    ),
    (4, 4): (
        "fc922e63a21bcd927e49ce462f876a1eee97d2fe55c0bcff054753312d161902",
        "519cc9013009053aa4352569e1c9eb0c1f2b0538e89c28f2ad98657ceb30c0d0",
        -910.1684698130092,
        [
            0.8324650218986596, 0.8372674463934238, 0.576628288383479,
            0.5968903700590827, 0.20220364212092584,
        ],
    ),
    (4, 5): (
        "60c6baac81f22186d5a0bcccb7f768e6a1419b0639f5385cfb41298e3bdf9e12",
        "e1429821e2c674695f8eac1ba19b28ebce15111b60b5aecea3158d04ab37d2ea",
        -891.4433123226813,
        [
            0.9064693588751381, 0.8336717216776801, 0.610401275447931,
            0.5429416170411201, 0.3041463370761904,
        ],
    ),
    (3, 0): (
        "8efeb094ea107ac345e93fb53e6dc568162b7a1004a749f3f5286b4f0f31edc7",
        "91b827914a29e158ffef013610cacc36d12122d1e1e7e26fa3cd2b074f3a5985",
        -712.9244721752609,
        [
            0.887325284897096, 0.8752956050583705, 0.6998626550786926,
            0.5152270925156531, 0.20818805147824493,
        ],
    ),
    (3, 1): (
        "3571de42164b2e3692b3bbe0a78422ad912806ea8ff9e5ae3f21b1cd325dba9c",
        "f33c31eed1d7b0998147b32aa613dbca871886068345a2887cc2972202341478",
        -733.2211044066329,
        [
            0.9496301819081926, 0.82260091234924, 0.5660953494559047,
            0.526241323218234, 0.2959235025312369,
        ],
    ),
    (3, 2): (
        "c9fe336ab20cf2ff20a0d96b4c756f9331acaf9421dac2c8ef392d8214ce3ed2",
        "97ff158af3be9285638334ec9110f640ce37dfc1b2b31cf9ab2cc09eae238b47",
        -741.0605884634732,
        [
            0.8531608694422168, 0.8651387412770882, 0.5407715726663903,
            0.6113382230575042, 0.30100331752126247,
        ],
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("key", sorted(SIMULATED))
    def test_simulated_answers(self, key):
        n_classes, seed = key
        sim, vote, ds, log_likelihood, accuracies = SIMULATED[key]
        rng = as_rng(seed)
        if seed == 2:
            rng.integers(0, 2)  # enter with a buffered half-word
        answers = simulate_answers(MARKET, _edges(seed), rng, n_classes)
        assert _digest(
            answers.tasks.tolist(),
            answers.workers.tolist(),
            answers.votes.tolist(),
            list(answers.truths.items()),
            rng.bit_generator.state,
        ) == sim
        vote_rng = as_rng(seed)
        labels = majority_vote(answers, vote_rng)
        assert _digest(list(labels.items()), vote_rng.bit_generator.state) == vote
        self._assert_dawid_skene(answers, ds, log_likelihood, accuracies)

    @pytest.mark.parametrize("key", sorted(WORLDS))
    def test_worlds(self, key):
        n_classes, seed = key
        vote, ds, log_likelihood, accuracies = WORLDS[key]
        answers, _ = _world(n_classes=n_classes, seed=seed)
        vote_rng = as_rng(seed)
        labels = majority_vote(answers, vote_rng)
        assert _digest(list(labels.items()), vote_rng.bit_generator.state) == vote
        self._assert_dawid_skene(answers, ds, log_likelihood, accuracies)

    @staticmethod
    def _assert_dawid_skene(answers, labels, log_likelihood, accuracies):
        result = dawid_skene(answers)
        assert _digest(list(result.labels.items())) == labels
        assert result.log_likelihood == pytest.approx(log_likelihood, abs=1e-9)
        assert list(result.worker_accuracies.values()) == pytest.approx(
            accuracies, abs=1e-9
        )
