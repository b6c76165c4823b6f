"""Byte-identity pins for the registry codecs and the decode-once round trip.

The digests and losses below were recorded with the per-element codec
kernels and with a round trip that decoded every gradient twice (once for
the feedback state, once for the receiver).  Any change to a codec's wire
bytes, its decoded values, the feedback state or a trainer's losses shows
up here as a mismatch.
"""

import hashlib

import numpy as np
import pytest

from repro.algorithms import (DGCMomentum, ErrorFeedback, available_algorithms,
                              get_algorithm)
from repro.minidnn import (ClassificationData, DataParallelTrainer, Dense,
                           ReLU, Sequential, WorkerCompressionState)

CODECS = ("3lc", "adacomp", "dgc", "graddrop", "onebit", "tbq", "terngrad")
FEEDBACKS = ("error", "dgc")

#: sha256 over encode bytes + decode bytes of every corpus gradient.
CODEC_DIGESTS = {
    "3lc":
        "b927d6e0d815ca555b1f1894b2a684a8039e91759a349846681ffce96d89a690",
    "adacomp":
        "e965fe9620e1429db3418c7b29c619b9bd94ea8e8a26f376857d878527ee6de5",
    "dgc":
        "8e224e798af5cedd552c4bdfed42f7a4c97b200a17d897b7eea2f6c87fed0a89",
    "graddrop":
        "c7b5861770a985c8b6e0853d543f1f07dbd66fbac837366878d37e58613f145a",
    "onebit":
        "8ce7890257b72a32603878b3f23d51ce1d9cd782d90ee68154aecd7d53fcbc27",
    "tbq":
        "9b86cd0e1fb7eafa25ff14f31013392fe5a00310af38d291b25a37d3aba07bf9",
    "terngrad":
        "5b5de97440e2c9468894a5909489009bb19946ca478156283fc07dd27781cc97",
}

#: sha256 over the received arrays and feedback state of a round-trip run.
ROUNDTRIP_DIGESTS = {
    "3lc/dgc":
        "8667aa47ab704e89046faaa04b76e7088700aa451f46033c8662c8b5a850400a",
    "3lc/error":
        "00bf9793a4116b5a59905a96bd39616d403f537f1eccdb8bbe7ba88b126b72ec",
    "adacomp/dgc":
        "2342eeeaeb49d512698eece377c8a934ebb00b62f6932671b610e00ea2a70955",
    "adacomp/error":
        "f15d6463f3e4b11ed636d6fbb14d0d24e67e6ac40f7024982ef4a1b5b2293dbb",
    "dgc/dgc":
        "96fbd81fd47f3bca5fcf8c6dc32fabbe15545ab6d2789fdc2ca666cd83480e9e",
    "dgc/error":
        "e6df0a120b47a593cf6ea71554f1aa7b4e4d4db9f98c3a0b86815db3db8a031c",
    "graddrop/dgc":
        "f1b1ef9a8cd1084037250933a7748473673ce779f807b13fb4e604176341c902",
    "graddrop/error":
        "029a6ce831b11b096fcf1d31e6fcd2cef70b422d9add07c03e1092e69d8b100c",
    "onebit/dgc":
        "84e2b377823bf006fcc1c7bbf10e4aa6c7455d8a1886dacef862d9d270568e5a",
    "onebit/error":
        "e7b1e61d25ac3cb8296baf69549a9b90a3f885f5488ca695c6c55e48ceb6ed22",
    "tbq/dgc":
        "c666f4429755fb681853e58b88d6d5b94465c722d254d4ecc51e66300a8b3f8e",
    "tbq/error":
        "f11756950f126c585a24685bfdf769aef522b2f79e31a87b93f65dd347e78067",
    "terngrad/dgc":
        "a44b8b931d02e1bf7e02bec906c945d2a532f010735bd2978db95d51cd3475dd",
    "terngrad/error":
        "7358d10fd3e921b397527c94a5183d37787b274610f67841851a1edee5d71a65",
}

#: sha256 over the buffers and feedback state of a ``compress`` run.
COMPRESS_DIGESTS = {
    "3lc/dgc":
        "effb2ebf4e65d517f3877648580fac1bf6ef732953b46090937c713062f35d97",
    "3lc/error":
        "e7245686e562e02ee6ac2e421538104160ae21e77e0ff1980b5433b58e4b1af9",
    "adacomp/dgc":
        "36b81a9bbfa7adec2159c13d2f779568f806e2525cf8f97c523bdb4319bf3a00",
    "adacomp/error":
        "f899d6e4ea7a2c4a2180d6330c073ab08cd0ffb40aff03625a5de4cbfd620adb",
    "dgc/dgc":
        "097a34a9fc967f9bb36cc175578c370df0fe639388ecb4a0f5896100d092d810",
    "dgc/error":
        "dee46b46a6c2319f189a534a96d3238de4f66382dc0aab44cfed631f39ded09b",
    "graddrop/dgc":
        "1a8e5847c270755fb5b55238491e87474a6d63321b09b0f301436691ce94e1f6",
    "graddrop/error":
        "a44c12ebff23c2b82a376e8997beab26fc0906fac7af125bd2dbab469df0c9c2",
    "onebit/dgc":
        "1b2d06aeb09de8093e41f65fb5d7575b6a0e158df9f9eaffd7c2600d567f527c",
    "onebit/error":
        "906b86a35af6369f8f4dfe90169f6f7f4926cf0835c5dab29c9c0db0d4acd1cb",
    "tbq/dgc":
        "7fe462f0e1974f45f52cc7efd0719cfd051853ee48e920d473eb49c6ec68e97e",
    "tbq/error":
        "1d15dcca5e32374e3c30b9d038a5b5513e8a661fe8d4a9bf871d04abe89e0cb7",
    "terngrad/dgc":
        "31dec8da9b0a3d21a77924f9bca4f81f75baa862ac8d29b7d7962f5917511448",
    "terngrad/error":
        "bc723faa795dde47f4383631b353f09b8d365ded5556c10320dd6b7023189b34",
}

#: ``float.hex`` losses of a short DataParallelTrainer run per codec.
TRAINER_LOSSES = {
    "none": [
        "0x1.51a94a0000000p+1", "0x1.221f770000000p+1",
        "0x1.98aeda0000000p+0", "0x1.f64ffc0000000p-1",
    ],
    "3lc": [
        "0x1.51a94a0000000p+1", "0x1.32f6a10000000p+1",
        "0x1.decca40000000p+0", "0x1.129c310000000p+0",
    ],
    "adacomp": [
        "0x1.51a94a0000000p+1", "0x1.3d642e0000000p+1",
        "0x1.15b5eb0000000p+1", "0x1.3583490000000p+0",
    ],
    "dgc": [
        "0x1.51a94a0000000p+1", "0x1.5512d20000000p+1",
        "0x1.8d73ca0000000p+1", "0x1.2db2a70000000p+1",
    ],
    "graddrop": [
        "0x1.51a94a0000000p+1", "0x1.4426370000000p+1",
        "0x1.6600f60000000p+1", "0x1.ebe16b0000000p+0",
    ],
    "onebit": [
        "0x1.51a94a0000000p+1", "0x1.301b770000000p+1",
        "0x1.11f1550000000p+1", "0x1.23a3000000000p+0",
    ],
    "tbq": [
        "0x1.51a94a0000000p+1", "0x1.53eee20000000p+1",
        "0x1.9b820b0000000p+1", "0x1.497eea0000000p+1",
    ],
    "terngrad": [
        "0x1.51a94a0000000p+1", "0x1.25c3130000000p+1",
        "0x1.9f761d0000000p+0", "0x1.fc4b880000000p-1",
    ],
}


def corpus():
    """Seeded gradients: dense, mostly-zero, all-zero and constant."""
    rng = np.random.default_rng(2021)
    grads = [(rng.standard_normal(n) * 0.1).astype(np.float32)
             for n in (1, 2, 4, 5, 6, 9, 14, 15, 71, 128, 1000, 4099)]
    for n in (70, 141, 3000):  # long zero-quintet runs for 3LC
        grad = rng.standard_normal(n).astype(np.float32)
        grad[rng.random(n) < 0.97] = 0.0
        grads.append(grad)
    grads.append(rng.standard_t(2, 2000).astype(np.float32))
    grads.append(np.zeros(33, dtype=np.float32))
    grads.append(np.full(17, 0.5, dtype=np.float32))
    grads.append(np.full(17, -0.25, dtype=np.float32))
    return grads


def codec_digest(name):
    algo = get_algorithm(name)
    digest = hashlib.sha256()
    for grad in corpus():
        buf = algo.encode(grad)
        digest.update(buf.tobytes())
        digest.update(algo.decode(buf).tobytes())
    return digest.hexdigest()


def feedback_state(state, tensor):
    """The per-tensor arrays a feedback wrapper carries between steps."""
    if isinstance(state, ErrorFeedback):
        return [state.residual(tensor)]
    return [state._u[tensor], state._v[tensor]]


def step_gradients(steps=4, seed=7):
    """Per step, two named tensors of different shapes."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        yield [(tensor, (rng.standard_normal(shape) * 0.1).astype(np.float32))
               for tensor, shape in (("w", (13, 11)), ("b", (29,)))]


def roundtrip_digest(name, feedback):
    worker = WorkerCompressionState(get_algorithm(name), feedback)
    digest = hashlib.sha256()
    for grads in step_gradients():
        for tensor, grad in grads:
            digest.update(worker.roundtrip(tensor, grad).tobytes())
            for arr in feedback_state(worker._state, tensor):
                digest.update(arr.tobytes())
    return digest.hexdigest()


def make_state(name, feedback):
    algo = get_algorithm(name)
    return ErrorFeedback(algo) if feedback == "error" else DGCMomentum(algo)


def compress_digest(name, feedback):
    state = make_state(name, feedback)
    digest = hashlib.sha256()
    for grads in step_gradients():
        for tensor, grad in grads:
            digest.update(state.compress(tensor, grad).tobytes())
            for arr in feedback_state(state, tensor):
                digest.update(arr.tobytes())
    return digest.hexdigest()


def trainer_losses(codec, steps=4):
    data = ClassificationData(num_classes=4, dim=16, train_size=256,
                              test_size=16, noise=3.0, seed=5)
    shards = [data.shard(w, 2) for w in range(2)]

    def build():
        rng = np.random.default_rng(11)
        return Sequential(Dense(16, 32, rng=rng), ReLU(), Dense(32, 4, rng=rng))

    trainer = DataParallelTrainer(
        build, num_workers=2, batch_size=16, lr=0.05, momentum=0.9,
        algorithm=None if codec == "none" else get_algorithm(codec),
        feedback="dgc" if codec == "dgc" else "error", seed=3)
    batches = np.random.default_rng(13)
    losses = []
    for _ in range(steps):
        shard_batches = []
        for x, y in shards:
            idx = batches.integers(0, len(x), size=16)
            shard_batches.append((x[idx], y[idx]))
        losses.append(float(trainer.step(shard_batches)).hex())
    return losses


# ------------------------------------------------------------------- pins

def test_pinned_codecs_are_registered():
    assert set(CODECS) <= set(available_algorithms())


@pytest.mark.parametrize("name", CODECS)
def test_codec_bytes_unchanged(name):
    assert codec_digest(name) == CODEC_DIGESTS[name]


@pytest.mark.parametrize("feedback", FEEDBACKS)
@pytest.mark.parametrize("name", CODECS)
def test_roundtrip_received_and_state_unchanged(name, feedback):
    assert roundtrip_digest(name, feedback) == ROUNDTRIP_DIGESTS[
        f"{name}/{feedback}"]


@pytest.mark.parametrize("feedback", FEEDBACKS)
@pytest.mark.parametrize("name", CODECS)
def test_compress_buffers_and_state_unchanged(name, feedback):
    assert compress_digest(name, feedback) == COMPRESS_DIGESTS[
        f"{name}/{feedback}"]


@pytest.mark.parametrize("codec", ("none",) + CODECS)
def test_trainer_loss_trajectory_pinned(codec):
    assert trainer_losses(codec) == TRAINER_LOSSES[codec]


# ------------------------------------------------------------ decode once

@pytest.mark.parametrize("feedback", FEEDBACKS)
@pytest.mark.parametrize("name", CODECS)
def test_roundtrip_equals_decode_of_compress(name, feedback):
    """The reused decode is exactly what the receiver would decode."""
    worker = WorkerCompressionState(get_algorithm(name), feedback)
    shadow = WorkerCompressionState(get_algorithm(name), feedback)
    for grads in step_gradients():
        for tensor, grad in grads:
            received = worker.roundtrip(tensor, grad)
            buf = shadow._state.compress(tensor, grad.ravel())
            expected = shadow.algorithm.decode(buf).reshape(grad.shape)
            assert received.shape == grad.shape
            assert received.dtype == expected.dtype
            assert received.tobytes() == expected.tobytes()
            for mine, theirs in zip(feedback_state(worker._state, tensor),
                                    feedback_state(shadow._state, tensor)):
                assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("feedback", FEEDBACKS)
@pytest.mark.parametrize("name", CODECS)
def test_returned_decode_matches_decode_of_buffer(name, feedback):
    """The decode ``compress`` hands back is ``decode`` of its buffer."""
    state = make_state(name, feedback)
    for grads in step_gradients():
        for tensor, grad in grads:
            buf, decoded = state.compress(tensor, grad, return_decoded=True)
            assert decoded.tobytes() == state.algorithm.decode(buf).tobytes()


@pytest.mark.parametrize("feedback", FEEDBACKS)
def test_roundtrip_decodes_once(feedback, monkeypatch):
    algo = get_algorithm("onebit")
    calls = []
    real_decode = algo.decode
    monkeypatch.setattr(algo, "decode",
                        lambda buf: calls.append(1) or real_decode(buf))
    worker = WorkerCompressionState(algo, feedback)
    for grads in step_gradients(steps=2):
        for tensor, grad in grads:
            worker.roundtrip(tensor, grad)
    assert len(calls) == 4
