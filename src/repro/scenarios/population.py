"""Streaming device population: 100k devices without 100k objects.

`SenSocialTestbed` materializes every phone, mobility model and OSN
graph edge up front — fine at 8 users, a wall at 100k.  This module is
the population-scale substrate underneath the scenario library
(:mod:`repro.scenarios.library`):

* :class:`Population` — a *generator*, not a container.  Every
  device's initial state, home city, mobility and social edges derive
  from ``(seed, index)`` through a counter-based splitmix64 hash, so
  device #73942 can be conjured in O(1) without ever enumerating the
  other 99 999 devices.  The social graph is streamed the same way:
  ``friends(i)`` is computed from the community layout, never stored.
* Splitmix64 counter RNGs — one 64-bit word of state per device.  A
  ``random.Random`` instance costs ~2.5 KB of Mersenne state; a
  splitmix state is a single machine word that lives in a typed column.
  :class:`DeviceRng` wraps one for callers that want an object.
* :class:`HibernationStore` — struct-of-arrays device state.  A device
  is seven scalars in parallel ``array`` columns (49 bytes), and those
  columns are the *only* copy: the scenario engine reads and writes
  them in place, event by event.  Derived data (friends, home city) is
  recomputed, never stored.
"""

from __future__ import annotations

import math
from array import array
from functools import cached_property
from typing import Callable

from repro.device.mobility import City, CityRegistry
from repro.simkit.errors import SimulationError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(state: int) -> int:
    """Splitmix64's output function: the draw for an advanced state."""
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: ``(next_state, output)``."""
    state = (state + _GOLDEN) & _MASK64
    return state, mix64(state)


def _absorb(parts: tuple[int, ...]) -> int:
    """Fold ``parts`` into a hash state: each is xored in, then the
    state advances by splitmix's step."""
    state = 0x5851F42D4C957F2D
    for part in parts:
        state = ((state ^ (part & _MASK64)) + _GOLDEN) & _MASK64
    return state


def hash64(*parts: int) -> int:
    """Stateless deterministic mix of integer parts (graph edges, home
    cities, burst membership — anything derivable without history).

    One output mix ends the fold; a mix per part would only be
    discarded.
    """
    return mix64((_absorb(parts) + _GOLDEN) & _MASK64)


def keyed_hash64(*prefix: int) -> Callable[[int], int]:
    """``hash64(*prefix, part)`` as a function of ``part`` alone, with
    the constant prefix folded once."""
    state = _absorb(prefix)
    advance = 2 * _GOLDEN   # the last part's fold step, then the mix's

    def hash_last(part: int) -> int:
        return mix64(((state ^ (part & _MASK64)) + advance) & _MASK64)
    return hash_last


def hash_unit(*parts: int) -> float:
    """``hash64`` mapped to [0, 1)."""
    return hash64(*parts) / 2.0 ** 64


class DeviceRng:
    """Per-device counter PRNG: one 64-bit word of state."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def u64(self) -> int:
        self.state, out = splitmix64(self.state)
        return out

    def random(self) -> float:
        return self.u64() / 2.0 ** 64

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def expovariate(self, mean: float) -> float:
        # 1 - random() is in (0, 1]: log never sees zero.
        return -mean * math.log(1.0 - self.random())

    def randrange(self, n: int) -> int:
        return self.u64() % n


class ActiveDevice:
    """One device's scalars as an object — what
    :meth:`HibernationStore.rehydrate` returns.  The scenario engine
    never builds one; it works on the store's columns directly."""

    __slots__ = ("index", "rng", "lon", "lat", "online", "emitted",
                 "buffered", "dropped")

    def __init__(self, index: int, rng_state: int, lon: float, lat: float,
                 online: bool = True, emitted: int = 0, buffered: int = 0,
                 dropped: int = 0):
        self.index = index
        self.rng = DeviceRng(rng_state)
        self.lon = lon
        self.lat = lat
        self.online = online
        self.emitted = emitted
        self.buffered = buffered
        self.dropped = dropped


class HibernationStore:
    """Columnar (struct-of-arrays) device state.

    Devices activate in index order (arrival rank == index), so the
    columns are plain appendable arrays addressed by device index — no
    per-device dict entry, no per-device object header.  Seven scalars
    per device: splitmix state, position, online flag, and the three
    record counters.  The scenario engine reads and writes the columns
    in place; :meth:`rehydrate`/:meth:`hibernate` copy one device out to
    an :class:`ActiveDevice` and back, and count those copies.
    """

    __slots__ = ("_rng", "_lon", "_lat", "_online", "_emitted",
                 "_buffered", "_dropped", "hibernations", "rehydrations")

    def __init__(self):
        self._rng = array("Q")
        self._lon = array("d")
        self._lat = array("d")
        self._online = array("b")
        self._emitted = array("q")
        self._buffered = array("q")
        self._dropped = array("q")
        self.hibernations = 0
        self.rehydrations = 0

    def __len__(self) -> int:
        return len(self._rng)

    def append_initial(self, rng_state: int, lon: float, lat: float) -> int:
        """Admit the next device (index == current length)."""
        index = len(self._rng)
        self._rng.append(rng_state)
        self._lon.append(lon)
        self._lat.append(lat)
        self._online.append(1)
        self._emitted.append(0)
        self._buffered.append(0)
        self._dropped.append(0)
        return index

    def writeback(self, device: ActiveDevice) -> None:
        """Write the device's scalars back into the columns without
        counting a hibernation."""
        index = device.index
        self._rng[index] = device.rng.state
        self._lon[index] = device.lon
        self._lat[index] = device.lat
        self._online[index] = 1 if device.online else 0
        self._emitted[index] = device.emitted
        self._buffered[index] = device.buffered
        self._dropped[index] = device.dropped

    def hibernate(self, device: ActiveDevice) -> None:
        self.writeback(device)
        self.hibernations += 1

    def rehydrate(self, index: int) -> ActiveDevice:
        self.rehydrations += 1
        return ActiveDevice(
            index, self._rng[index], self._lon[index], self._lat[index],
            online=bool(self._online[index]), emitted=self._emitted[index],
            buffered=self._buffered[index], dropped=self._dropped[index])

    def emitted_total(self) -> int:
        return sum(self._emitted)

    def buffered_total(self) -> int:
        return sum(self._buffered)

    def dropped_total(self) -> int:
        return sum(self._dropped)

    def nbytes(self) -> int:
        """Exact bytes held by the columns (the cold-device footprint)."""
        return sum(len(column) * column.itemsize for column in (
            self._rng, self._lon, self._lat, self._online,
            self._emitted, self._buffered, self._dropped))


class Population:
    """Seeded lazy generator of devices, mobility and OSN edges.

    The social graph is a community layout: devices partition into
    communities of ``community_size``; inside a community every pair is
    a candidate edge admitted by a stateless hash draw, a ring edge
    keeps each community connected, and one hash-chosen bridge couples
    each community to the next — so ``friends(i)`` is O(community)
    arithmetic from both endpoints, with no adjacency ever stored.
    """

    #: Spread of initial positions around the home-city center, deg.
    HOME_JITTER_DEG = 0.02

    def __init__(self, size: int, seed: int = 0, *,
                 cities: CityRegistry | None = None,
                 community_size: int = 16, edge_probability: float = 0.25):
        if size <= 0:
            raise SimulationError(f"population size must be > 0, got {size}")
        if community_size < 2:
            raise SimulationError(
                f"community size must be >= 2, got {community_size}")
        self.size = size
        self.seed = seed
        self.cities = cities if cities is not None \
            else CityRegistry.shared_europe()
        self._city_names = self.cities.names()
        self.community_size = community_size
        self.edge_probability = edge_probability

    # -- devices -------------------------------------------------------
    # Per-device hashes and the city table are built on first use:
    # engine construction stays a few constant-time assignments.

    @cached_property
    def _homes(self) -> tuple[tuple[float, float], ...]:
        """``(lon, lat)`` of each city center, in ``_city_names`` order."""
        return tuple((city.lon, city.lat) for city in
                     map(self.cities.get, self._city_names))

    @cached_property
    def _home_hash(self) -> Callable[[int], int]:
        return keyed_hash64(self.seed, 0xC171)

    @cached_property
    def _rng_hash(self) -> Callable[[int], int]:
        return keyed_hash64(self.seed, 0xD1CE)

    @cached_property
    def _lon_hash(self) -> Callable[[int], int]:
        return keyed_hash64(self.seed, 0x10A7)

    @cached_property
    def _lat_hash(self) -> Callable[[int], int]:
        return keyed_hash64(self.seed, 0x1A70)

    def home_city(self, index: int) -> City:
        return self.cities.get(self._city_names[
            self._home_hash(index) % len(self._city_names)])

    def home(self, index: int) -> tuple[float, float]:
        """``(lon, lat)`` of the device's home-city center."""
        return self._homes[self._home_hash(index) % len(self._homes)]

    def initial_state(self, index: int) -> tuple[int, float, float]:
        """``(rng_state, lon, lat)`` for a device about to activate."""
        home_lon, home_lat = self.home(index)
        lon = home_lon + (self._lon_hash(index) / 2.0 ** 64 - 0.5) \
            * self.HOME_JITTER_DEG
        lat = home_lat + (self._lat_hash(index) / 2.0 ** 64 - 0.5) \
            * self.HOME_JITTER_DEG
        return self._rng_hash(index), lon, lat

    def user_id(self, index: int) -> str:
        return f"p{index:06d}"

    # -- the streaming social graph ------------------------------------

    def _community_bounds(self, index: int) -> tuple[int, int]:
        start = (index // self.community_size) * self.community_size
        return start, min(start + self.community_size, self.size)

    def _edge(self, a: int, b: int) -> bool:
        """Intra-community edge draw — symmetric by construction.

        The pair must be one hashed part: ``hash64`` folds its parts
        with xor and add alone, so two varying parts would give most
        communities the same edge pattern.
        """
        low, high = (a, b) if a < b else (b, a)
        return hash_unit(self.seed, 0xED6E, low * self.size + high) \
            < self.edge_probability

    def friends(self, index: int) -> tuple[int, ...]:
        """Neighbours of ``index``, sorted — computed, never stored."""
        start, end = self._community_bounds(index)
        members = end - start
        linked: set[int] = set()
        # Ring edge keeps every community connected.
        if members > 1:
            linked.add(start + (index - start + 1) % members)
            linked.add(start + (index - start - 1) % members)
        for other in range(start, end):
            if other != index and self._edge(index, other):
                linked.add(other)
        # One bridge per community couples it to the next (both
        # endpoints hash-chosen, so either side can derive the edge).
        communities = (self.size + self.community_size - 1) \
            // self.community_size
        if communities > 1:
            community = index // self.community_size
            for c in (community - 1, community):
                src_c, dst_c = c % communities, (c + 1) % communities
                src = self._bridge_member(src_c, 0xB41D)
                dst = self._bridge_member(dst_c, 0xB42D)
                if src == index and dst != index:
                    linked.add(dst)
                elif dst == index and src != index:
                    linked.add(src)
        linked.discard(index)
        return tuple(sorted(linked))

    def _bridge_member(self, community: int, salt: int) -> int:
        start = community * self.community_size
        members = min(self.community_size, self.size - start)
        return start + hash64(self.seed, salt, community) % members


def shared_europe() -> CityRegistry:
    """Alias for :meth:`CityRegistry.shared_europe` (import symmetry)."""
    return CityRegistry.shared_europe()
