"""The pipe protocol between the sharded engine and its shard workers.

Every parent↔worker message crosses an OS pipe as one binary frame: a
one-byte command code, a little-endian struct header, and — for scatter
frames only — the sender ids as raw int64 ``tobytes`` payload, decoded
with ``np.frombuffer`` on the other side.  Sender sets are always sparse
vertex ids (never per-vertex masks), so frame size tracks the frontier,
not the graph.  :func:`send` and :func:`recv` return each frame's exact
byte count; the engine's ``pipe_bytes`` totals and telemetry counters
are built on them.

Command tuples carried:

* ``("run", program, values_name, dtype_str, gathered_name, shadow_name)``
  — once per run; the program object has no fixed layout, so this
  frame's body is pickled.
* ``("scatter", generation, senders, mode)`` — per delivering
  superstep; ``senders`` is an int64 id array, ``mode`` a
  :mod:`repro.bsp.frontier` name.  The worker caches the resulting arc
  selection under ``generation``.
* ``("gather", generation)`` — fold the arc selection cached by the
  scatter of the same generation; a fixed 9-byte frame.  Gathered
  outputs return through shared memory, not the pipe.
* ``("close",)``
* ``("ok", *ints)`` — worker replies; every element is int-coercible.
* ``("error", text)`` — worker traceback.

Every decoded frame is validated for exact length and known codes;
a frame that fails raises :class:`WireFormatError`.
"""

from __future__ import annotations

import pickle
import struct
from typing import TYPE_CHECKING

import numpy as np

from repro.bsp.frontier import DENSE, SPARSE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = ["WireFormatError", "recv", "send"]


class WireFormatError(ValueError):
    """A pipe frame failed structural validation while decoding.

    Raised by :func:`recv` when a frame is truncated, carries an unknown
    command/mode code, or declares a payload length that does not match
    the bytes actually received — i.e. the two pipe ends disagree about
    the protocol (version skew, corrupted frame, or a stray writer on
    the descriptor).  Distinct from a worker-side ``("error", ...)``
    reply, which is a well-formed frame reporting an application
    failure.
    """


_CMD_RUN = 0x01
_CMD_SCATTER = 0x02
_CMD_GATHER = 0x03
_CMD_CLOSE = 0x04
_REPLY_OK = 0x00
_REPLY_ERR = 0x7F

_MODE_CODE = {SPARSE: 0, DENSE: 1}
_MODE_NAME = {0: SPARSE, 1: DENSE}

# Header of a scatter frame after the command byte:
# generation (int64), frontier-mode code (uint8), sender count (int64).
_SCATTER_HEADER = struct.Struct("<qBq")
# Body of a gather frame after the command byte: generation (int64).
_GATHER_BODY = struct.Struct("<q")
_OK_HEADER = struct.Struct("<B")


def send(conn: "Connection", msg: tuple) -> int:
    """Encode ``msg``, write it with ``send_bytes``, return frame size."""
    frame = _encode(msg)
    conn.send_bytes(frame)
    return len(frame)


def recv(conn: "Connection") -> tuple[tuple, int]:
    """Read one frame; return ``(message, frame_size)``.

    Raises :class:`WireFormatError` if the frame fails validation.
    """
    buf = conn.recv_bytes()
    return _decode(buf), len(buf)


def _encode(msg: tuple) -> bytes:
    cmd = msg[0]
    if cmd == "scatter":
        _, gen, senders, mode = msg
        senders = np.ascontiguousarray(senders, dtype=np.int64)
        return (
            bytes([_CMD_SCATTER])
            + _SCATTER_HEADER.pack(int(gen), _MODE_CODE[mode], senders.size)
            + senders.tobytes()
        )
    if cmd == "gather":
        _, gen = msg
        return bytes([_CMD_GATHER]) + _GATHER_BODY.pack(int(gen))
    if cmd == "ok":
        ints = [int(v) for v in msg[1:]]
        return (
            bytes([_REPLY_OK])
            + _OK_HEADER.pack(len(ints))
            + struct.pack(f"<{len(ints)}q", *ints)
        )
    if cmd == "error":
        return bytes([_REPLY_ERR]) + msg[1].encode("utf-8", "replace")
    if cmd == "run":
        return bytes([_CMD_RUN]) + pickle.dumps(
            msg[1:], protocol=pickle.HIGHEST_PROTOCOL
        )
    if cmd == "close":
        return bytes([_CMD_CLOSE])
    raise ValueError(f"unknown wire command {cmd!r}")


def _decode(buf: bytes) -> tuple:
    if not buf:
        raise WireFormatError("empty wire frame")
    code = buf[0]
    if code == _CMD_SCATTER:
        if len(buf) < 1 + _SCATTER_HEADER.size:
            raise WireFormatError(
                f"truncated scatter frame: {len(buf)} byte(s), header "
                f"needs {1 + _SCATTER_HEADER.size}"
            )
        gen, mode_code, count = _SCATTER_HEADER.unpack_from(buf, 1)
        if mode_code not in _MODE_NAME:
            raise WireFormatError(
                "scatter frame carries unknown frontier-mode code "
                f"{mode_code:#x}"
            )
        if count < 0:
            raise WireFormatError(
                f"scatter frame declares negative sender count {count}"
            )
        expected = 1 + _SCATTER_HEADER.size + count * 8
        if len(buf) != expected:
            raise WireFormatError(
                f"scatter frame declares {count} sender id(s) "
                f"({expected} bytes) but carries {len(buf)} bytes"
            )
        senders = np.frombuffer(
            buf, dtype=np.int64, count=count, offset=1 + _SCATTER_HEADER.size
        )
        return ("scatter", gen, senders, _MODE_NAME[mode_code])
    if code == _CMD_GATHER:
        expected = 1 + _GATHER_BODY.size
        if len(buf) != expected:
            raise WireFormatError(
                f"gather frame carries {len(buf)} bytes, expected {expected}"
            )
        (gen,) = _GATHER_BODY.unpack_from(buf, 1)
        return ("gather", gen)
    if code == _REPLY_OK:
        if len(buf) < 1 + _OK_HEADER.size:
            raise WireFormatError("truncated ok frame: missing count")
        (count,) = _OK_HEADER.unpack_from(buf, 1)
        expected = 1 + _OK_HEADER.size + count * 8
        if len(buf) != expected:
            raise WireFormatError(
                f"ok frame declares {count} int(s) ({expected} bytes) "
                f"but carries {len(buf)} bytes"
            )
        ints = struct.unpack_from(f"<{count}q", buf, 1 + _OK_HEADER.size)
        return ("ok", *ints)
    if code == _REPLY_ERR:
        return ("error", buf[1:].decode("utf-8", "replace"))
    if code == _CMD_RUN:
        try:
            body = pickle.loads(buf[1:])
        except Exception as exc:
            raise WireFormatError(
                f"run frame body failed to unpickle: {exc!r}"
            ) from exc
        if not isinstance(body, tuple):
            raise WireFormatError(
                f"run frame body is not a tuple: {type(body).__name__}"
            )
        return ("run", *body)
    if code == _CMD_CLOSE:
        if len(buf) != 1:
            raise WireFormatError(
                f"close frame carries {len(buf) - 1} trailing byte(s)"
            )
        return ("close",)
    raise WireFormatError(f"unknown wire code {code:#x}")
