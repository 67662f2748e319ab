"""ASCII rendering of maps and recorded episodes.

Obstacles render as '#', free cells as '.', agents as digits (index mod
10), and active agents' goals as letters (index mod 26, 'a' for agent 0).
An agent glyph wins over a goal glyph on the same cell; finished agents
and their goals disappear from subsequent frames. With ``viewer`` set,
cells outside that agent's observation window render as spaces.

An episode log is a JSON document with the map record, the observation
radius, and one frame per state (episode length + 1 frames): each frame
holds per-agent positions and active flags. EpisodeLogs records them
from the rollouts that evaluate() scores.
"""
from __future__ import annotations

import string

from .grid_world import EnvState

LOG_VERSION = 1


class MalformedLog(ValueError):
    """The episode log is missing required structure."""


class EpisodeLogs(dict):
    """A play_episode ``on_step`` callback that logs repeat 0 of every map,
    keyed by map index: one frame per state the episode saw."""

    def __call__(self, block: EnvState, e: int, key) -> None:
        index, repeat = key
        if repeat:
            return
        if block.t[e] == 0:
            self[index] = {"format_version": LOG_VERSION, "map": block.record(e),
                           "obs_radius": block.obs_radius, "frames": []}
        self[index]["frames"].append({
            "positions": block.positions(e).tolist(),
            "active": block.active[e].tolist(),
        })


def render_frame(record: dict, positions, active,
                 viewer: int | None = None, obs_radius: int | None = None) -> str:
    size = int(record["size"])
    blocked_cells = {(int(r), int(c)) for r, c in record["blocked"]}
    chars = [["#" if (r, c) in blocked_cells else "." for c in range(size)]
             for r in range(size)]
    for i, agent in enumerate(record["agents"]):
        if not active[i]:
            continue
        gr, gc = agent["goal"]
        if chars[gr][gc] == ".":
            chars[gr][gc] = string.ascii_lowercase[i % 26]
    for i, pos in enumerate(positions):
        if active[i]:
            r, c = pos
            chars[r][c] = str(i % 10)
    if viewer is not None and active[viewer]:
        if obs_radius is None:
            raise MalformedLog("viewer dimming requires obs_radius")
        vr, vc = positions[viewer]
        for r in range(size):
            for c in range(size):
                if abs(r - vr) > obs_radius or abs(c - vc) > obs_radius:
                    chars[r][c] = " "
    return "\n".join("".join(row) for row in chars)


def render_map(record: dict) -> str:
    """Single frame of a map record at its initial state."""
    positions = [agent["start"] for agent in record["agents"]]
    active = [True] * len(record["agents"])
    return render_frame(record, positions, active)


def render_episode(log: dict, viewer: int | None = None) -> list[str]:
    """One ASCII frame per recorded state."""
    try:
        record = log["map"]
        frames = log["frames"]
        radius = log.get("obs_radius")
        out = []
        for fr in frames:
            out.append(render_frame(record, fr["positions"], fr["active"],
                                    viewer=viewer, obs_radius=radius))
        return out
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedLog(f"bad episode log: {exc}") from exc
