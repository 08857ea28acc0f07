"""The MQTT broker.

One broker instance lives on the server host.  It keeps per-client
sessions (subscriptions, offline queues for persistent sessions),
retained messages, and performs QoS-1 redelivery towards clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.mqtt import packets
from repro.mqtt.errors import MqttProtocolError
from repro.mqtt.subtrie import RetainedTrie, SubscriptionTrie
from repro.mqtt.topics import validate_filter, validate_topic
from repro.net.message import Message
from repro.net.network import Endpoint, Network
from repro.simkit.scheduler import EventHandle
from repro.simkit.world import World


@dataclass
class _Subscription:
    topic_filter: str
    qos: int
    #: Shard partition spec (see :class:`repro.mqtt.packets.Subscribe`)
    #: or ``None`` for a classic subscription.
    partition: dict | None = None


@dataclass
class _Session:
    client_id: str
    address: str
    clean_session: bool
    keepalive: float
    connected: bool = True
    subscriptions: dict[str, _Subscription] = field(default_factory=dict)
    #: True while any subscription carries a partition spec — lets the
    #: routing hot loop skip partition checks for ordinary clients.
    has_partitioned: bool = False
    offline_queue: list[packets.Publish] = field(default_factory=list)
    pending_acks: dict[int, "_PendingDelivery"] = field(default_factory=dict)
    last_seen: float = 0.0
    next_packet_id: int = 1
    will_topic: str | None = None
    will_payload: Any = None


@dataclass
class _PendingDelivery:
    publish: packets.Publish
    retries_left: int
    timer: EventHandle | None = None


class MqttBroker(Endpoint):
    """Mosquitto stand-in: sessions, retained messages, QoS-1 redelivery."""

    #: Seconds before an unacknowledged QoS-1 delivery is retransmitted.
    RETRY_INTERVAL = 5.0
    #: Retransmissions before giving up and queueing for reconnection.
    MAX_RETRIES = 5
    #: Offline queue cap per persistent session.
    MAX_QUEUED = 1000
    #: A session with no traffic for this many keep-alive periods is
    #: declared dead (MQTT 3.1.1 mandates 1.5).
    KEEPALIVE_GRACE = 1.5
    #: How often the broker sweeps for dead sessions.
    EXPIRY_SWEEP_S = 30.0

    def __init__(self, world: World, network: Network, address: str = "mqtt-broker"):
        self._world = world
        self._network = network
        self.address = network.register(address, self)
        self._sessions: dict[str, _Session] = {}
        self._address_to_client: dict[str, str] = {}
        self._retained: dict[str, packets.Publish] = {}
        #: Wildcard-aware subscription trie: routing work per PUBLISH is
        #: O(topic levels + matches), not O(sessions × subscriptions).
        self._subscriptions = SubscriptionTrie()
        #: Topic trie over the retained table, so a new subscription
        #: finds its retained messages without scanning every topic.
        self._retained_trie = RetainedTrie()
        #: Per-topic cached counter handles (when observability is on),
        #: so the routing hot loop never re-resolves registry entries.
        self._obs_counters: dict[tuple[str, str], Any] = {}
        self.messages_routed = 0
        self.publishes_received = 0
        #: Batch envelopes routed (one trie walk fans out N records).
        self.batch_publishes = 0
        #: Logical records those envelopes carried — with
        #: ``publishes_received`` this yields trie routings *per
        #: record*, the batching win the perf gate asserts on.
        self.batched_records_routed = 0
        #: Deliveries suppressed by shard partition specs (shard-aware
        #: topic routing; see ``_partition_allows``).
        self.partition_filtered = 0
        #: SUBSCRIBEs rejected for carrying a ring older than the one
        #: already bound to the same filter (elastic lifecycle guard).
        self.partition_stale_rejected = 0
        #: Consistent-hash rings rebuilt from partition specs, cached
        #: per distinct membership.
        self._ring_cache: dict[tuple, Any] = {}
        self.sessions_expired = 0
        self.running = True
        self.crashes = 0
        self.restarts = 0
        self._obs = world.component_or_none("obs")
        world.scheduler.every(self.EXPIRY_SWEEP_S, self._expire_dead_sessions,
                              delay=self.EXPIRY_SWEEP_S)

    # -- failure injection --------------------------------------------

    def crash(self, *, preserve_persistent_sessions: bool = True) -> None:
        """The broker process dies without warning.

        While crashed, the broker's network address is partitioned, so
        every packet towards it is dropped (and counted) by the
        network.  Persistent sessions model Mosquitto's on-disk store:
        with ``preserve_persistent_sessions`` their subscriptions,
        offline queues and the retained-message table survive the
        restart, and in-flight QoS-1 deliveries are re-queued; without
        it the broker comes back completely amnesiac and clients must
        re-CONNECT and re-SUBSCRIBE from scratch (which the client's
        reconnect path does when CONNACK says ``session_present=False``).
        """
        if not self.running:
            return
        self.running = False
        self.crashes += 1
        self._network.set_down(self.address)
        for session in list(self._sessions.values()):
            for pending in session.pending_acks.values():
                if pending.timer is not None:
                    pending.timer.cancel()
                if not session.clean_session and preserve_persistent_sessions:
                    session.offline_queue.append(pending.publish)
            session.pending_acks.clear()
            session.connected = False
        if preserve_persistent_sessions:
            for client_id, session in self._sessions.items():
                if session.clean_session:
                    self._drop_subscriptions(session)
            self._sessions = {client_id: session
                              for client_id, session in self._sessions.items()
                              if not session.clean_session}
            self._address_to_client = {
                address: client_id
                for address, client_id in self._address_to_client.items()
                if client_id in self._sessions}
        else:
            self._sessions.clear()
            self._address_to_client.clear()
            self._retained.clear()
            self._subscriptions = SubscriptionTrie()
            self._retained_trie.clear()

    def restart(self) -> None:
        """The broker process comes back up and accepts traffic again."""
        if self.running:
            return
        self.running = True
        self.restarts += 1
        self._network.set_down(self.address, False)

    # -- endpoint interface -------------------------------------------

    def deliver(self, message: Message) -> None:
        if not self.running:
            return  # a packet racing the crash instant; the sender retries
        packet = message.payload
        if not isinstance(packet, packets.Connect):
            self._maybe_resume(message.src)
        handler = getattr(self, f"_on_{type(packet).__name__.lower()}", None)
        if handler is None:
            raise MqttProtocolError(f"broker cannot handle {type(packet).__name__}")
        handler(message.src, packet)

    def _maybe_resume(self, address: str) -> None:
        """Traffic from an expired-but-persistent session resumes it.

        A real client would notice the broken TCP connection and
        re-CONNECT; the simulated clients don't watch their sockets, so
        the broker treats any packet from the session's known address
        as that reconnection and flushes the offline queue.
        """
        session = self._session_for(address)
        if session is not None and not session.connected:
            session.connected = True
            session.last_seen = self._world.now
            self._flush_offline(session)

    # -- introspection -------------------------------------------------

    def session_count(self) -> int:
        return len(self._sessions)

    def connected_clients(self) -> list[str]:
        return sorted(cid for cid, s in self._sessions.items() if s.connected)

    def retained_topics(self) -> list[str]:
        return sorted(self._retained)

    def subscriber_count(self, topic: str) -> int:
        """Connected sessions with at least one filter matching ``topic``."""
        levels = validate_topic(topic)
        matched = self._subscriptions.match(levels)
        count = 0
        for client_id in matched:
            session = self._sessions.get(client_id)
            if session is not None and session.connected:
                count += 1
        return count

    @property
    def routing_checks(self) -> int:
        """Cumulative routing work (trie nodes visited + subscriber
        entries considered).  The perf harness diffs this across
        publishes to prove per-publish work is sublinear in the total
        subscription count."""
        return self._subscriptions.checks

    # -- packet handlers ----------------------------------------------

    def _on_connect(self, src: str, packet: packets.Connect) -> None:
        session = self._sessions.get(packet.client_id)
        session_present = session is not None and not packet.clean_session
        if session is None or packet.clean_session:
            if session is not None:
                # A clean CONNECT wipes the previous session, so its
                # subscriptions must leave the routing trie too.
                self._drop_subscriptions(session)
            session = _Session(
                client_id=packet.client_id,
                address=src,
                clean_session=packet.clean_session,
                keepalive=packet.keepalive,
            )
            self._sessions[packet.client_id] = session
        else:
            session.address = src
            session.connected = True
            session.keepalive = packet.keepalive
        session.will_topic = packet.will_topic
        session.will_payload = packet.will_payload
        session.last_seen = self._world.now
        self._address_to_client[src] = packet.client_id
        self._send(session, packets.ConnAck(session_present=session_present))
        self._flush_offline(session)

    def _on_disconnect(self, src: str, packet: packets.Disconnect) -> None:
        session = self._session_for(src)
        if session is None:
            return
        # A clean DISCONNECT discards the will message (MQTT 3.1.1).
        session.will_topic = None
        session.will_payload = None
        self._mark_disconnected(session, send_will=False)

    def _on_subscribe(self, src: str, packet: packets.Subscribe) -> None:
        session = self._require_session(src)
        levels = validate_filter(packet.topic_filter)
        current = session.subscriptions.get(packet.topic_filter)
        if (current is not None and current.partition is not None
                and packet.partition is not None
                and "version" in packet.partition
                and "version" in current.partition
                and packet.partition["version"]
                < current.partition["version"]):
            # A SUBSCRIBE carrying an older ring than the one already
            # bound must not rewind the slice: during elastic lifecycle
            # churn a re-subscribe delayed in flight could otherwise
            # overwrite a newer ownership map and route records to a
            # shard that no longer owns them.
            self.partition_stale_rejected += 1
            session.last_seen = self._world.now
            self._send(session, packets.SubAck(packet.packet_id,
                                               granted_qos=packet.qos))
            return
        session.subscriptions[packet.topic_filter] = _Subscription(
            packet.topic_filter, packet.qos, partition=packet.partition)
        session.has_partitioned = any(
            sub.partition is not None
            for sub in session.subscriptions.values())
        self._subscriptions.add(levels, session.client_id, packet.qos)
        session.last_seen = self._world.now
        self._send(session, packets.SubAck(packet.packet_id, granted_qos=packet.qos))
        # Retained messages matching the new filter are delivered at
        # once; the retained trie yields them already topic-sorted (the
        # historical delivery order of the full-table scan).  A
        # partitioned subscription only pulls its ring slice — this
        # redelivery of retained registrations is exactly how a shard
        # learns the devices it inherits after a rebalance.
        for _topic, retained in self._retained_trie.match_filter(levels):
            if packet.partition is not None and not self._partition_accepts(
                    packet.partition, validate_topic(retained.topic)):
                continue
            self._deliver_publish(session, retained, qos=min(
                packet.qos, retained.qos), retain_flag=True)

    def _on_unsubscribe(self, src: str, packet: packets.Unsubscribe) -> None:
        session = self._require_session(src)
        removed = session.subscriptions.pop(packet.topic_filter, None)
        if removed is not None:
            self._subscriptions.discard(
                validate_filter(packet.topic_filter), session.client_id)
            session.has_partitioned = any(
                sub.partition is not None
                for sub in session.subscriptions.values())
        session.last_seen = self._world.now
        self._send(session, packets.UnsubAck(packet.packet_id))

    def _on_publish(self, src: str, packet: packets.Publish) -> None:
        levels = validate_topic(packet.topic)
        self.publishes_received += 1
        payload = packet.payload
        if type(payload) is dict and "batch_wire" in payload:
            # A publish envelope (``MqttClient.publish_batch``): the
            # single trie walk below routes every record it carries.
            self.batch_publishes += 1
            self.batched_records_routed += payload.get("n", 1)
            if self._obs is not None:
                self._obs.telemetry.histogram(
                    "batch_size", stage="broker").observe(payload.get("n", 1))
        if self._obs is not None:
            self._counter("broker_publishes_received", packet.topic).inc()
        session = self._session_for(src)
        if session is not None:
            session.last_seen = self._world.now
            if packet.qos >= 1 and packet.packet_id is not None:
                self._send(session, packets.PubAck(packet.packet_id))
        if packet.retain:
            if packet.payload is None:
                self._retained.pop(packet.topic, None)
                self._retained_trie.delete(levels)
            else:
                self._retained[packet.topic] = packet
                self._retained_trie.set(levels, packet)
        self.route(packet)

    def _on_pingreq(self, src: str, packet: packets.PingReq) -> None:
        session = self._session_for(src)
        if session is not None:
            session.last_seen = self._world.now
            self._send(session, packets.PingResp())

    def _on_puback(self, src: str, packet: packets.PubAck) -> None:
        session = self._session_for(src)
        if session is None:
            return
        session.last_seen = self._world.now
        pending = session.pending_acks.pop(packet.packet_id, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    # -- routing ------------------------------------------------------

    def route(self, packet: packets.Publish) -> int:
        """Fan a PUBLISH out to every matching session; returns count.

        The subscription trie yields each matching client with the max
        qos of its matching filters (``max over filters of min(sub.qos,
        packet.qos)`` equals ``min(max filter qos, packet.qos)`` since
        the packet qos is constant), and delivery iterates matched
        clients in sorted id order — the same order the historical
        all-sessions scan produced.
        """
        levels = validate_topic(packet.topic)
        matched = self._subscriptions.match(levels)
        delivered = 0
        for client_id in sorted(matched):
            session = self._sessions.get(client_id)
            if session is None:
                continue
            if session.has_partitioned and not self._partition_allows(
                    session, levels, packet.topic):
                self.partition_filtered += 1
                continue
            best_qos = min(matched[client_id], packet.qos)
            delivered += 1
            if session.connected:
                self._deliver_publish(session, packet, qos=best_qos)
            elif not session.clean_session:
                if len(session.offline_queue) < self.MAX_QUEUED:
                    session.offline_queue.append(packets.Publish(
                        topic=packet.topic, payload=packet.payload,
                        qos=best_qos, headers=dict(packet.headers)))
                    if self._obs is not None:
                        self._obs.telemetry.gauge(
                            "broker_offline_queue_depth",
                            client=session.client_id).set(
                                len(session.offline_queue))
        self.messages_routed += delivered
        if self._obs is not None and delivered:
            self._counter("broker_routed", packet.topic).inc(delivered)
        return delivered

    def _partition_allows(self, session: _Session, levels: list[str],
                          topic: str) -> bool:
        """Shard-aware routing decision for a partitioned session.

        The publish goes through if *any* subscription matching the
        topic is unpartitioned, or any matching partitioned
        subscription's ring places the topic's key on that shard.
        """
        from repro.mqtt.topics import topic_matches

        for sub in session.subscriptions.values():
            if not topic_matches(sub.topic_filter, topic):
                continue
            if sub.partition is None or self._partition_accepts(
                    sub.partition, levels):
                return True
        return False

    def _partition_accepts(self, spec: dict, levels: list[str]) -> bool:
        """Does the consistent-hash ring in ``spec`` place the topic's
        key on the subscribing shard?"""
        key_level = spec.get("key_level", 0)
        if not 0 <= key_level < len(levels):
            return False
        cache_key = (tuple(spec.get("members", ())), spec.get("vnodes"))
        ring = self._ring_cache.get(cache_key)
        if ring is None:
            # The ring module is import-cycle-sensitive (cluster code
            # imports the broker); resolve it lazily and rebuild the
            # ring once per distinct membership.
            from repro.cluster.ring import ConsistentHashRing
            ring = ConsistentHashRing.from_spec(spec)
            self._ring_cache[cache_key] = ring
        if not len(ring):
            return False
        return ring.owner(levels[key_level]) == spec.get("owner")

    def _counter(self, name: str, topic: str):
        """A cached per-topic counter handle: the hot loop resolves the
        registry entry (name + sorted label set) once per topic, not
        once per publish."""
        counter = self._obs_counters.get((name, topic))
        if counter is None:
            counter = self._obs.telemetry.counter(name, topic=topic)
            self._obs_counters[(name, topic)] = counter
        return counter

    def _deliver_publish(self, session: _Session, packet: packets.Publish,
                         qos: int, retain_flag: bool = False) -> None:
        outgoing = packets.Publish(
            topic=packet.topic, payload=packet.payload, qos=qos,
            retain=retain_flag, headers=dict(packet.headers))
        if qos >= 1:
            outgoing.packet_id = session.next_packet_id
            session.next_packet_id += 1
            pending = _PendingDelivery(outgoing, retries_left=self.MAX_RETRIES)
            session.pending_acks[outgoing.packet_id] = pending
            pending.timer = self._world.scheduler.schedule(
                self.RETRY_INTERVAL, self._retry, session.client_id,
                outgoing.packet_id)
        self._send(session, outgoing)

    def _retry(self, client_id: str, packet_id: int) -> None:
        session = self._sessions.get(client_id)
        if session is None:
            return
        pending = session.pending_acks.get(packet_id)
        if pending is None:
            return
        if pending.retries_left <= 0 or not session.connected:
            # Treat the client as gone; queue for reconnect when the
            # session is persistent, otherwise drop.
            session.pending_acks.pop(packet_id, None)
            if not session.clean_session:
                session.offline_queue.append(pending.publish)
                self._mark_disconnected(session, send_will=True)
            return
        pending.retries_left -= 1
        pending.publish.duplicate = True
        self._send(session, pending.publish)
        pending.timer = self._world.scheduler.schedule(
            self.RETRY_INTERVAL, self._retry, client_id, packet_id)

    def _flush_offline(self, session: _Session) -> None:
        queued, session.offline_queue = session.offline_queue, []
        if self._obs is not None and queued:
            self._obs.telemetry.gauge(
                "broker_offline_queue_depth",
                client=session.client_id).set(0)
        for packet in queued:
            self._deliver_publish(session, packet, qos=packet.qos)

    def _expire_dead_sessions(self) -> None:
        """Disconnect sessions silent past their keep-alive grace.

        A phone that died without a DISCONNECT is detected here; its
        will message (if any) fires, and a persistent session starts
        queueing for its eventual reconnection.
        """
        if not self.running:
            return
        now = self._world.now
        for session in list(self._sessions.values()):
            if not session.connected or session.keepalive <= 0:
                continue
            deadline = session.last_seen + session.keepalive * self.KEEPALIVE_GRACE
            if now > deadline:
                self.sessions_expired += 1
                self._mark_disconnected(session, send_will=True)

    # -- plumbing -----------------------------------------------------

    def _mark_disconnected(self, session: _Session, send_will: bool) -> None:
        session.connected = False
        if session.clean_session:
            # Persistent sessions keep their address mapping so later
            # traffic from the same client can resume them.
            self._address_to_client.pop(session.address, None)
        for pending in session.pending_acks.values():
            if pending.timer is not None:
                pending.timer.cancel()
            if not session.clean_session:
                session.offline_queue.append(pending.publish)
        session.pending_acks.clear()
        if send_will and session.will_topic is not None:
            self.route(packets.Publish(
                topic=session.will_topic, payload=session.will_payload, qos=0))
        if session.clean_session:
            self._drop_subscriptions(session)
            self._sessions.pop(session.client_id, None)

    def _drop_subscriptions(self, session: _Session) -> None:
        """Remove every filter of a dying session from the trie."""
        for topic_filter in session.subscriptions:
            self._subscriptions.discard(
                validate_filter(topic_filter), session.client_id)

    def _session_for(self, address: str) -> _Session | None:
        client_id = self._address_to_client.get(address)
        if client_id is None:
            return None
        return self._sessions.get(client_id)

    def _require_session(self, address: str) -> _Session:
        session = self._session_for(address)
        if session is None:
            raise MqttProtocolError(f"no connected session for address {address!r}")
        return session

    def _send(self, session: _Session, packet) -> None:
        self._network.send(self.address, session.address, packet)
