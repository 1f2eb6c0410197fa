"""Unit tests for the cloaking confidence mechanisms (Figure 6)."""

from repro.predictors.confidence import ConfidenceKind, ConfidenceState


class TestOneBitNonAdaptive:
    def test_always_predicts(self):
        state = ConfidenceState(ConfidenceKind.ONE_BIT)
        assert state.predict
        state.on_wrong()
        assert state.predict  # non-adaptive: never backs off
        state.on_wrong()
        assert state.predict


class TestTwoBitAdaptive:
    def test_predicts_immediately_after_creation(self):
        """Cloaking is enabled "as soon as a dependence is detected"."""
        state = ConfidenceState(ConfidenceKind.TWO_BIT)
        assert state.predict

    def test_misprediction_requires_two_corrections(self):
        """"Once a misprediction is encountered it requires two correct
        predictions before allowing a predicted value to be used again."
        """
        state = ConfidenceState(ConfidenceKind.TWO_BIT)
        state.on_wrong()
        assert not state.predict
        state.on_correct()
        assert not state.predict   # one correct is not enough
        state.on_correct()
        assert state.predict       # two corrects restore prediction

    def test_saturation(self):
        state = ConfidenceState(ConfidenceKind.TWO_BIT)
        for _ in range(10):
            state.on_correct()
        assert state.value == 3
        state.on_wrong()
        assert state.value == 0

    def test_detection_strengthens(self):
        state = ConfidenceState(ConfidenceKind.TWO_BIT)
        state.on_wrong()
        state.on_detect()
        state.on_detect()
        assert state.predict
