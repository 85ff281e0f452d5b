"""The checkpoint file format: the Checkpoint record, its v3 writer, and the v3, v2 and v1 loader.

Checkpoints are UTF-8 text: a `qforage-checkpoint v3` header, `# key=value`
config echo lines, then named matrix blocks (Checkpoint.blocks) for
everything but critic.phases. The phases are the init stream's last draw and
training never changes them, so a load redraws them from the echoed seed and
the block shapes, and a save refuses phases that are not that draw, so no file
loads back to other parameters. An edited seed echo therefore redraws other
phases; they reach only the density-matrix views (inspect's off-diagonals
and the demos), never train or evaluate, which read class block masses.
The init stream's draw order (init_draws) lives here, since it defines those
phases. The normals drawn before the phases take a varying number of the
stream's raw outputs, so the first redraw for a seed and shapes replays the
whole stream. init_draws remembers the stream's state after the normals for
the last few seeds and shapes, and a later redraw resumes from it and draws
the phases alone: trainer.init_params draws the stream, so train's saves
never replay it, and a load in a fresh process replays it once.

A v3 block is a `[name rows cols]` line, then its values' little-endian
float64 bytes in base64, wrapped the one way the writer wraps them: groups
of 76 characters (57 bytes; the block's last group may be shorter), up to 16
groups to a line, separated by single spaces. So save followed by load
reproduces every parameter bit for bit, and a load accepts a block's text
only if it is what a save writes for the values it decodes to. v2 files,
whose blocks are decimal rows printed with 17 significant digits, and v1
files, which also store the phases block, still load; v1 files with the
phases they store (Checkpoint.phases_stored).

A load reads the file once, in binary mode, and numbers its lines as
str.splitlines numbers the whole text (_Cursor). A v3 payload is decoded from
its slice of the file's bytes, never cut into lines, by one strict base64 call
(_written_values); only a payload that is not what the writer writes is cut
into lines, to name the bad one (_payload_error). A decimal block parses in
one np.loadtxt call (_parse_block). A save builds the whole file as bytes with
array operations (_payload) and writes it once, in binary mode, to a
temporary file that it fsyncs and renames onto the target (save_checkpoint).

This module knows nothing of training settings: the config is the echo's
strings. trainer.checkpoint_config checks a loaded checkpoint against the
settings it echoes, and trainer.bind_params binds it to a corpus.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import qcore, qrep
from .errors import CheckpointInvalid, ParseError, VersionMismatch, undecodable_line
from .seeding import stream_rng

CHECKPOINT_HEADER = "qforage-checkpoint v3"
V2_HEADER = "qforage-checkpoint v2"
V1_HEADER = "qforage-checkpoint v1"
#: The blocks a file stores, in file order. v1 files also store critic.phases
#: after critic.amplitudes.
_STORED_BLOCKS = (
    "actor.amplitudes",
    "global.weights",
    "global.factors",
    "critic.amplitudes",
    "critic.salience",
)
_V1_BLOCKS = _STORED_BLOCKS + ("critic.phases",)
#: A v3 payload group is the base64 of 57 bytes, 76 characters; a payload
#: line holds up to 16 groups, so every full line encodes 912 bytes.
_GROUP_CHARS = 76
_LINE_GROUPS = 16
#: The writer's cell: a group and the space, or after a line's last group the
#: newline, that follows it.
_CELL = _GROUP_CHARS + 1
#: The separators after the groups of a full payload line.
_LINE_END = b" " * (_LINE_GROUPS - 1) + b"\n"
#: The line breaks besides \n, \r\n and \r that str.splitlines cuts at, as
#: UTF-8: the one-byte ones, then the ones that only a file with bytes outside
#: ASCII can hold.
_ASCII_BREAKS = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_UTF8_BREAKS = tuple(brk.encode() for brk in ("\x85", "\u2028", "\u2029"))
#: How many init streams' states after the normals init_draws remembers
#: (_PHASE_STATES); a new one past this drops the oldest.
_PHASE_STATES_BOUND = 16
#: (seed, actor_shape, factor_shape, critic_shape) -> the init stream's
#: bit-generator state just before its phase draw, oldest first. Only the
#: state dicts are kept, never an array.
_PHASE_STATES: dict[tuple, dict] = {}


@dataclass(eq=False)
class Checkpoint:
    """All trainable parameters plus the config echo.

    `header` is the first line of the file the checkpoint was loaded from:
    CHECKPOINT_HEADER (v3), V2_HEADER, or V1_HEADER for a file that stores
    its phases. A checkpoint made in memory carries CHECKPOINT_HEADER, and a
    save always writes v3.
    """

    actor_amplitudes: np.ndarray
    global_weights: np.ndarray
    global_factors: np.ndarray
    critic_amplitudes: np.ndarray
    critic_phases: np.ndarray
    critic_salience: np.ndarray
    config_echo: dict[str, str]
    header: str = CHECKPOINT_HEADER

    @property
    def phases_stored(self) -> bool:
        """Whether critic.phases came from the file (v1), not redrawn from the echoed seed."""
        return self.header == V1_HEADER

    def blocks(self) -> dict[str, np.ndarray]:
        """Each file block's name and 2-D array, in file order.

        Vectors are columns; factors (R, order, k) are rows r * order + i.
        """
        rank, order, basis_dim = self.global_factors.shape
        return {
            "actor.amplitudes": self.actor_amplitudes,
            "global.weights": self.global_weights.reshape(-1, 1),
            "global.factors": self.global_factors.reshape(rank * order, basis_dim),
            "critic.amplitudes": self.critic_amplitudes,
            "critic.phases": self.critic_phases,
            "critic.salience": self.critic_salience.reshape(-1, 1),
        }


def init_draws(
    seed: int,
    actor_shape: tuple[int, int],
    factor_shape: tuple[int, int, int],
    critic_shape: tuple[int, int],
) -> tuple[np.ndarray, ...]:
    """The init stream's draws, in the order it makes them.

    Standard normals for the actor table (V + 2, k), the factors (R, n, k)
    and the weights (R,) and the critic amplitudes (V + 1, d), then the
    critic phases, uniform on [-pi, pi) of shape (V + 1, d). A seed and the
    shapes give the same bits every time: trainer.init_params builds its
    parameters from them, and a v3 or v2 checkpoint's phases are redrawn
    from them. The normals take a varying number of the stream's outputs
    each, so the phases cannot be reached without drawing them; the stream's
    state just after them is remembered in _PHASE_STATES, from which
    echoed_init_phases draws the phases alone.
    """
    rng = stream_rng(seed, "init")
    normals = (
        rng.standard_normal(actor_shape),
        rng.standard_normal(factor_shape),
        rng.standard_normal(factor_shape[0]),
        rng.standard_normal(critic_shape),
    )
    key = (seed, tuple(actor_shape), tuple(factor_shape), tuple(critic_shape))
    _PHASE_STATES.pop(key, None)
    _PHASE_STATES[key] = rng.bit_generator.state
    if len(_PHASE_STATES) > _PHASE_STATES_BOUND:
        del _PHASE_STATES[next(iter(_PHASE_STATES))]
    return (*normals, _draw_phases(rng, critic_shape))


def _draw_phases(rng: np.random.Generator, critic_shape: tuple[int, int]) -> np.ndarray:
    """The critic phases: the init stream's last draw, uniform on [-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, size=critic_shape)


def echoed_init_phases(
    config_echo: dict[str, str],
    actor_amplitudes: np.ndarray,
    global_factors: np.ndarray,
    critic_amplitudes: np.ndarray,
) -> np.ndarray:
    """The critic phases init_draws gives for the echoed seed and the blocks' shapes.

    When init_draws has remembered the stream's state after the normals for
    this seed and these shapes (_PHASE_STATES), only the phases are drawn,
    from that state; otherwise the whole stream is replayed, which remembers
    it. Both give the same bits. An echo without an integer seed raises
    CheckpointInvalid.
    """
    try:
        seed = int(config_echo["seed"])
    except (KeyError, ValueError):
        found = repr(config_echo["seed"]) if "seed" in config_echo else "none"
        raise CheckpointInvalid(
            f"config echo: critic.phases are redrawn from an integer seed, found {found}"
        ) from None
    shapes = (actor_amplitudes.shape, global_factors.shape, critic_amplitudes.shape)
    state = _PHASE_STATES.get((seed, *shapes))
    if state is None:
        return init_draws(seed, *shapes)[-1]
    bit_generator = np.random.PCG64(0)  # seeded, so no OS entropy is read before the state is set
    bit_generator.state = state
    return _draw_phases(np.random.Generator(bit_generator), critic_amplitudes.shape)


def _payload(block: np.ndarray) -> np.ndarray:
    """A v3 block's payload lines as bytes: its little-endian float64 bytes in base64, wrapped.

    Each line is up to _LINE_GROUPS groups of _GROUP_CHARS characters,
    space-separated, and ends in a newline; a block without values has none.
    The full groups are copied into _CELL-byte cells, a group and its
    separator, in one reshape; the block's short last group follows them.
    """
    encoded = np.frombuffer(
        base64.b64encode(np.ascontiguousarray(block, dtype="<f8")), dtype=np.uint8
    )
    full = len(encoded) // _GROUP_CHARS
    groups = -(-len(encoded) // _GROUP_CHARS)
    out = np.empty(len(encoded) + groups, dtype=np.uint8)  # each group and its separator
    cells = out[: full * _CELL].reshape(full, _CELL)
    cells[:, :-1] = encoded[: full * _GROUP_CHARS].reshape(full, _GROUP_CHARS)
    cells[:, -1] = ord(" ")
    cells[_LINE_GROUPS - 1 :: _LINE_GROUPS, -1] = ord("\n")
    if groups:
        out[full * _CELL : -1] = encoded[full * _GROUP_CHARS :]
        out[-1] = ord("\n")  # ends the last line, whether its last group is full or short
    return out


def checkpoint_bytes(checkpoint: Checkpoint) -> bytes:
    """The whole v3 file: header and echo, then each stored block's header and payload.

    critic.phases is not stored; a loader redraws it (echoed_init_phases).
    """
    blocks = checkpoint.blocks()
    head = CHECKPOINT_HEADER + "\n" + "".join(
        f"# {key}={value}\n" for key, value in checkpoint.config_echo.items()
    )
    parts = [head.encode("utf-8")]
    for name in _STORED_BLOCKS:
        rows, cols = blocks[name].shape
        parts += [f"[{name} {rows} {cols}]\n".encode("ascii"), _payload(blocks[name])]
    return b"".join(parts)


def checkpoint_lines(checkpoint: Checkpoint) -> list[str]:
    """The v3 file's lines, without newlines."""
    return checkpoint_bytes(checkpoint).decode("utf-8").split("\n")[:-1]


def save_checkpoint(checkpoint: Checkpoint, path: str) -> None:
    """Write the v3 file beside `path`, fsync it, rename it into place, fsync the directory.

    The file is checkpoint_bytes, written once in binary mode, so it has the
    same bytes on every platform. Phases that are not bit for bit the echoed
    seed's init draw would load back as other phases, so they raise
    CheckpointInvalid before anything is written. A save that fails before
    the rename leaves any earlier file at `path` as it was and no temporary
    file behind; one whose directory fsync fails raises with the new file
    whole at `path`. Once both fsyncs return, an OS crash cannot leave an
    empty or partial file at `path`.
    """
    redrawn = echoed_init_phases(
        checkpoint.config_echo,
        checkpoint.actor_amplitudes,
        checkpoint.global_factors,
        checkpoint.critic_amplitudes,
    )
    phases = checkpoint.critic_phases
    # Compared as bits: -0.0 is not 0.0, and a NaN equals only its own bits.
    if not (
        phases.shape == redrawn.shape
        and phases.dtype == redrawn.dtype
        and np.array_equal(phases.view(np.uint64), redrawn.view(np.uint64))
    ):
        raise CheckpointInvalid(
            f"block 'critic.phases' is not the init draw of the echoed "
            f"seed={checkpoint.config_echo['seed']}, and a checkpoint does not store it"
        )
    data = checkpoint_bytes(checkpoint)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    if os.name == "posix":  # only POSIX systems open a directory to fsync it
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


class _Cursor:
    """A file's bytes, handed out as the lines str.splitlines cuts from its text.

    Every line break str.splitlines cuts at (\\r\\n, \\r, \\x0b, \\x0c,
    \\x1c-\\x1e, \\x85, \\u2028 and \\u2029) is made \\n once, when the cursor
    is made, and a file that does not end in one gets a final \\n; a file
    whose breaks are all \\n is only scanned for the others. So take cuts at
    \\n alone, and a line's number is its splitlines index + 1. take decodes
    the lines it hands out as UTF-8; bytes that are not UTF-8 raise
    ParseError at the line that holds them. ahead hands out the bytes ahead
    uncopied.
    """

    def __init__(self, data: bytes):
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        for brk in _ASCII_BREAKS if data.isascii() else _ASCII_BREAKS + _UTF8_BREAKS:
            if brk in data:
                data = data.replace(brk, b"\n")
        if data and not data.endswith(b"\n"):
            data += b"\n"
        self._data = data
        self._view = memoryview(data)
        self._pos = 0  # bytes before it are handed out
        self.count = 0  # lines handed out so far

    def take(self, n: int) -> list[str]:
        """The next n lines without their newlines; fewer at the end of the file."""
        end = self._pos
        for _ in range(n):
            if end == len(self._data):
                break
            end = self._data.index(b"\n", end) + 1
        chunk = self._view[self._pos : end]
        try:
            text = str(chunk, "utf-8")
        except UnicodeDecodeError as exc:
            at = undecodable_line(chunk, exc.start)
            raise ParseError("not UTF-8 text", line=self.count + at) from None
        self._pos = end
        lines = text.split("\n")[:-1]
        self.count += len(lines)
        return lines

    def ahead(self, size: int) -> memoryview:
        """The next `size` bytes, uncopied; fewer at the end of the file."""
        return self._view[self._pos : self._pos + size]

    def skip(self, size: int, lines: int) -> None:
        """Pass the `size` bytes ahead gave, which hold `lines` whole lines."""
        self._pos += size
        self.count += lines


def _parse_rows(rows: list[str]) -> np.ndarray:
    with warnings.catch_warnings():
        # Rows that are all blank warn "input contained no data"; the caller's
        # shape check rejects them.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)


def _parse_block(lines: list[str], name: str, rows: int, cols: int, base: int = 0) -> np.ndarray:
    """The (rows, cols) values on a v2 or v1 block's decimal lines, parsed in one call.

    `lines` are the block's rows as the file holds them, fewer than `rows`
    if it ends early. A block that does not parse whole is walked row by row
    to raise ParseError at its first bad line, numbered as if `base` file
    lines came before lines[0]. A block without values parses to an empty
    array once every row is checked.
    """
    try:
        data = _parse_rows(lines)
    except ValueError:
        pass
    else:
        if data.shape == (rows, cols):
            return data
    for r in range(rows):
        if r >= len(lines):
            raise ParseError(f"block {name!r} truncated at row {r}", line=base + len(lines))
        count = len(lines[r].split())
        if count != cols:
            raise ParseError(
                f"block {name!r} row has {count} values, expected {cols}", line=base + r + 1
            )
        try:
            _parse_rows([lines[r]])
        except ValueError:
            raise ParseError(f"non-numeric value in block {name!r}", line=base + r + 1) from None
    if rows * cols > 0:  # Not reached while np.loadtxt splits rows as str.split does.
        raise ParseError(f"block {name!r} does not parse", line=base)
    return np.empty((rows, cols), dtype=np.float64)


def _payload_widths(size: int) -> list[int]:
    """The character count of each payload line the writer wraps `size` bytes into."""
    chars = 4 * -(-size // 3)
    full = _LINE_GROUPS * (_GROUP_CHARS + 1) - 1
    count, rest = divmod(chars, _LINE_GROUPS * _GROUP_CHARS)
    last = [rest + -(-rest // _GROUP_CHARS) - 1] if rest else []
    return [full] * count + last


def _payload_error(lines: list[str], name: str, size: int, base: int) -> ParseError:
    """The ParseError at a v3 block's first payload line that the writer would not write.

    `lines` are the block's payload lines as the file holds them, fewer than
    the writer writes if the file ends early; the first is file line
    base + 1. Lines that each decode can still decode to other than `size`
    bytes, through the padding of the block's last group; that is named at
    the last line.
    """
    widths = _payload_widths(size)
    for i, (line, width) in enumerate(zip(lines, widths)):
        at = base + i + 1
        if line.startswith("["):  # a block header: the payload ended early
            return ParseError(
                f"block {name!r} truncated at payload line {i + 1} of {len(widths)}", line=at
            )
        if len(line) != width:
            return ParseError(
                f"block {name!r} payload line has {len(line)} characters, expected {width}",
                line=at,
            )
        groups = line.split(" ")
        widths_ok = 0 < len(groups[-1]) <= _GROUP_CHARS
        if not widths_ok or any(len(g) != _GROUP_CHARS for g in groups[:-1]):
            return ParseError(
                f"block {name!r} payload line is not groups of {_GROUP_CHARS} characters "
                "separated by single spaces",
                line=at,
            )
        chars = "".join(groups)
        try:
            base64.b64decode(chars, validate=True)
        except ValueError:  # binascii.Error, or a character outside ASCII
            pass
        else:
            if i == len(widths) - 1 or "=" not in chars:  # padding ends the block only
                continue
        return ParseError(f"block {name!r} payload line is not base64", line=at)
    if len(lines) < len(widths):
        return ParseError(
            f"block {name!r} truncated at payload line {len(lines) + 1} of {len(widths)}",
            line=base + len(lines),
        )
    return ParseError(
        f"block {name!r} payload does not decode to its {size} bytes exactly",
        line=base + len(lines),
    )


def _written_values(payload, rows: int, cols: int) -> np.ndarray | None:
    """The (rows, cols) values whose payload _payload writes as `payload`, or None if none is.

    `payload` is any bytes-like object; it is read, not copied, and must be
    the writer's bytes exactly: its length, the separator after each full
    group (a space, or a newline after a line's 16th group and the block's
    last group), the base64 alphabet with padding only at the end, one
    strict decode to the block's size, and a last group that re-encodes to
    itself. The array is writable and native-endian, as np.loadtxt returns it.
    """
    size = rows * cols * 8
    chars = 4 * -(-size // 3)
    full, rest = divmod(chars, _GROUP_CHARS)
    text = np.frombuffer(payload, dtype=np.uint8)
    if len(text) != chars + full + (rest > 0):
        return None
    cells = text[: full * _CELL].reshape(full, _CELL)
    # The byte after each group; a short last group's is the payload's last byte.
    full_lines, left = divmod(full + (rest > 0), _LINE_GROUPS)
    separators = _LINE_END * full_lines + (b" " * (left - 1) + b"\n" if left else b"")
    if cells[:, -1].tobytes() + text[full * _CELL + rest :].tobytes() != separators:
        return None
    encoded = bytearray(chars)  # b64decode takes a bytearray uncopied
    groups = np.frombuffer(encoded, dtype=np.uint8)
    groups[: full * _GROUP_CHARS].reshape(full, _GROUP_CHARS)[...] = cells[:, :-1]
    groups[full * _GROUP_CHARS :] = text[full * _CELL : full * _CELL + rest]
    try:
        raw = base64.b64decode(encoded, validate=True)
    except binascii.Error:
        return None
    tail = size % 3
    if len(raw) != size or (tail and base64.b64encode(raw[-tail:]) != encoded[-4:]):
        return None
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, cols)


def load_checkpoint(path: str) -> Checkpoint:
    """Parse a v3, v2 or v1 checkpoint; malformed structure raises ParseError with a line number.

    The file is read once and cut into lines as they are needed (_Cursor).
    Block shapes are nonnegative and each parameter block appears once. A
    v3 block's payload is decoded from the file's bytes (_written_values);
    one that is not exactly what the writer writes is cut into lines to name
    the bad one (_payload_error). A v2 or v1 block's decimal rows are parsed
    whole (_parse_block). rng.* blocks, which files before v3 may hold, are
    skipped. A v3 or v2 file's critic.phases are redrawn from its echoed seed
    and block shapes (echoed_init_phases) once the blocks have parsed; a v1
    file stores them.
    """
    with open(path, "rb") as fh:
        lines = _Cursor(fh.read())
    header = lines.take(1)
    if header not in ([CHECKPOINT_HEADER], [V2_HEADER], [V1_HEADER]):
        found = header[0] if header else "<empty file>"
        raise VersionMismatch(
            f"expected header {CHECKPOINT_HEADER!r}, {V2_HEADER!r} or {V1_HEADER!r}, "
            f"found {found!r}"
        )
    version = header[0].rpartition(" ")[2]
    stored = _V1_BLOCKS if version == "v1" else _STORED_BLOCKS
    echo: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    last = None  # the block read last, which a stray line follows
    while taken := lines.take(1):
        line = taken[0]
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                echo[key.strip()] = value
            continue
        if not (line.startswith("[") and line.endswith("]")):
            shown = line if len(line) <= 40 else line[:40] + "..."
            after = f" after the lines of block {last!r}" if last else ""
            raise ParseError(
                f"expected a block header{after}, got {shown!r}", line=lines.count
            )
        parts = line[1:-1].split()
        if len(parts) != 3:
            raise ParseError(f"malformed block header {line!r}", line=lines.count)
        name = parts[0]
        try:
            rows, cols = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer block shape in {line!r}", line=lines.count) from None
        if rows < 0 or cols < 0:
            raise ParseError(f"negative block shape in {line!r}", line=lines.count)
        if name == "critic.phases" and name not in stored:
            raise ParseError(
                f"a {version} file does not store block 'critic.phases'; it is redrawn "
                "from the echoed seed",
                line=lines.count,
            )
        if name not in stored and not (version != "v3" and name.startswith("rng.")):
            raise ParseError(f"unknown block {name!r}", line=lines.count)
        if name in blocks:
            raise ParseError(f"block {name!r} appears twice", line=lines.count)
        base = lines.count
        if version == "v3":
            widths = _payload_widths(rows * cols * 8)
            written = lines.ahead(sum(widths) + len(widths))
            data = _written_values(written, rows, cols)
            if data is None:
                raise _payload_error(lines.take(len(widths)), name, rows * cols * 8, base)
            lines.skip(len(written), len(widths))
        else:
            data = _parse_block(lines.take(rows), name, rows, cols, base)
        last = name
        # rng.* blocks hold stream states earlier versions wrote; nothing reads them.
        if not name.startswith("rng."):
            blocks[name] = data
    missing = [b for b in stored if b not in blocks]
    if missing:
        raise ParseError(f"missing parameter blocks: {missing}", line=lines.count)
    weights = blocks["global.weights"].ravel()
    rank = weights.shape[0]
    factors_flat = blocks["global.factors"]
    if rank == 0 or factors_flat.shape[0] % rank != 0:
        raise ParseError(
            f"factor rows {factors_flat.shape[0]} not divisible by rank {rank}",
            line=lines.count,
        )
    order = factors_flat.shape[0] // rank
    factors = factors_flat.reshape(rank, order, factors_flat.shape[1])
    if "critic.phases" not in blocks:
        blocks["critic.phases"] = echoed_init_phases(
            echo, blocks["actor.amplitudes"], factors, blocks["critic.amplitudes"]
        )
    return Checkpoint(
        actor_amplitudes=blocks["actor.amplitudes"],
        global_weights=weights,
        global_factors=factors,
        critic_amplitudes=blocks["critic.amplitudes"],
        critic_phases=blocks["critic.phases"],
        critic_salience=blocks["critic.salience"].ravel(),
        config_echo=echo,
        header=header[0],
    )


def check_invariants(checkpoint: Checkpoint) -> None:
    """Reject parameters that training never produces, naming the block and row.

    Every value is finite; actor, factor and critic rows are unit length
    within qcore.UNIT_TOL; the actor padding row is exactly the first basis
    vector; critic amplitudes are nonnegative. Rows are numbered as the
    checkpoint file lays its blocks out. The block shapes must fit first
    (trainer.checkpoint_config checks them, then calls this).
    """
    blocks = checkpoint.blocks()
    # Whole-array tests first; the offending row is looked up only on failure.
    for name, block in blocks.items():
        if not np.isfinite(block).all():
            row = int(np.argmin(np.isfinite(block).all(axis=1)))
            raise CheckpointInvalid(f"block {name!r} row {row} holds a non-finite value")
    for name in ("actor.amplitudes", "global.factors", "critic.amplitudes"):
        rows = blocks[name]
        off_unit = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0) > qcore.UNIT_TOL
        if off_unit.any():
            row = int(np.argmax(off_unit))
            raise CheckpointInvalid(
                f"block {name!r} row {row} has norm {float(np.linalg.norm(rows[row]))!r}, "
                f"expected 1 within {qcore.UNIT_TOL}"
            )
    padding = qcore.basis_vector(checkpoint.actor_amplitudes.shape[1], 0)
    if checkpoint.actor_amplitudes[qrep.NULL_ID].tobytes() != padding.tobytes():
        raise CheckpointInvalid(
            f"block 'actor.amplitudes' row {qrep.NULL_ID} is the padding row and must be "
            f"exactly {padding.tolist()}"
        )
    negative = checkpoint.critic_amplitudes < 0.0
    if negative.any():
        row = int(np.argmax(negative.any(axis=1)))
        raise CheckpointInvalid(f"block 'critic.amplitudes' row {row} has a negative amplitude")
