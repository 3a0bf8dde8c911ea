"""Media Service microservice application (paper §3.3, §5.6, Fig. 10).

Eight interdependent actor types serve two request flows:

- **watch**: client → FrontEnd → MovieInfo (catalog lookup) →
  VideoStream (CPU-heavy, latency-sensitive) → UserInfo (the stream
  keeps updating the user's watching history);
- **review**: client → FrontEnd → ReviewEditor → UserReview (the editor
  updates the user's review) + ReviewChecker (CPU-heavy validation) +
  MovieReview (memory-heavy per-genre review store).

UserInfo and UserReview actors serve one client each; every other type
serves two clients (actors are created on demand as clients join).
Clients join and leave in normal-distributed waves; PLASMA's six rules
(paper §3.3) plus fleet scale-out/in track the wave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..actors import Actor, ActorRef, Client
from ..bench import TestBed, build_cluster, latency_curve
from ..cluster import GaugeSeries
from ..core import ElasticityManager, EmrConfig, compile_source
from ..sim import Timeout, spawn
from ..workload import normal_wave_schedule

__all__ = ["FrontEnd", "VideoStream", "UserInfo", "MovieInfo",
           "ReviewEditor", "UserReview", "ReviewChecker", "MovieReview",
           "MEDIA_POLICY", "MEDIA_ACTOR_CLASSES", "MediaService",
           "build_media_service", "run_media_experiment", "MediaResult"]

MEDIA_POLICY = """
server.net.perc > 80 or server.net.perc < 60 =>
    balance({FrontEnd}, net);

server.cpu.perc > 50 => reserve(VideoStream(v), cpu);

VideoStream(v).call(UserInfo(u).track).count > 0 =>
    pin(v); colocate(v, u);

ReviewEditor(r).call(UserReview(u).update).count > 0 =>
    pin(r); colocate(r, u);

true => pin(MovieReview(m));

server.cpu.perc > 90 or server.cpu.perc < 70 =>
    balance({ReviewChecker}, cpu);
"""

STREAM_CPU_MS = 6.0
CHECK_CPU_MS = 5.0
EDIT_CPU_MS = 0.3
FRONTEND_CPU_MS = 0.15
WATCH_RESPONSE_BYTES = 48_000.0   # the FrontEnd relays a media chunk


class FrontEnd(Actor):
    """Service entry point; network-intensive relay."""

    state_size_mb = 1.0

    def __init__(self, catalog: ActorRef) -> None:
        self.catalog = catalog
        self.requests = 0

    def watch(self, stream: ActorRef, user: ActorRef, movie_id: int):
        yield self.compute(FRONTEND_CPU_MS)
        self.requests += 1
        info = yield self.call(self.catalog, "lookup", movie_id)
        chunk = yield self.call(stream, "stream", user, movie_id,
                                size_bytes=1024.0)
        return {"info": info, "chunk": chunk}

    def review(self, editor: ActorRef, user_review: ActorRef,
               movie_id: int, text_len: int):
        yield self.compute(FRONTEND_CPU_MS)
        self.requests += 1
        result = yield self.call(editor, "edit", user_review, movie_id,
                                 text_len)
        return result


class MovieInfo(Actor):
    """Catalog metadata."""

    def lookup(self, movie_id: int):
        yield self.compute(0.1)
        return {"movie": movie_id, "title": f"movie-{movie_id}"}


class VideoStream(Actor):
    """Streams movie chunks; CPU-intensive and latency-sensitive."""

    state_size_mb = 4.0

    def __init__(self) -> None:
        self.chunks_streamed = 0

    def stream(self, user: ActorRef, movie_id: int):
        yield self.compute(STREAM_CPU_MS)
        self.chunks_streamed += 1
        self.tell(user, "track", movie_id, size_bytes=128.0)
        return WATCH_RESPONSE_BYTES  # the FrontEnd relays this chunk


class UserInfo(Actor):
    """Per-user profile and watching history."""

    def __init__(self) -> None:
        self.history: List[int] = []

    def track(self, movie_id: int):
        yield self.compute(0.05)
        self.history.append(movie_id)
        return len(self.history)


class ReviewEditor(Actor):
    """Handles review read/write requests for two users."""

    def __init__(self, checker: ActorRef, store: ActorRef) -> None:
        self.checker = checker
        self.store = store
        self.edits = 0

    def edit(self, user_review: ActorRef, movie_id: int, text_len: int):
        yield self.compute(EDIT_CPU_MS)
        self.edits += 1
        yield self.call(user_review, "update", movie_id, text_len)
        verdict = yield self.call(self.checker, "check", text_len)
        if verdict:
            self.tell(self.store, "publish", movie_id, text_len,
                      size_bytes=float(text_len))
        return verdict


class UserReview(Actor):
    """Per-user review history."""

    def __init__(self) -> None:
        self.reviews: List[Tuple[int, int]] = []

    def update(self, movie_id: int, text_len: int):
        yield self.compute(0.05)
        self.reviews.append((movie_id, text_len))
        return len(self.reviews)


class ReviewChecker(Actor):
    """CPU-intensive review moderation."""

    def __init__(self) -> None:
        self.checked = 0

    def check(self, text_len: int):
        yield self.compute(CHECK_CPU_MS)
        self.checked += 1
        return True


class MovieReview(Actor):
    """Per-genre review store: large, memory-intensive, never migrated."""

    state_size_mb = 512.0

    def __init__(self, genre: int = 0) -> None:
        self.genre = genre
        self.published = 0

    def publish(self, movie_id: int, text_len: int):
        yield self.compute(0.05)
        self.published += 1
        return self.published


MEDIA_ACTOR_CLASSES = [FrontEnd, MovieInfo, VideoStream, UserInfo,
                       ReviewEditor, UserReview, ReviewChecker, MovieReview]


@dataclass
class _ClientActors:
    frontend: ActorRef
    stream: ActorRef
    user_info: ActorRef
    editor: ActorRef
    user_review: ActorRef


class MediaService:
    """Deployment manager: creates actors on demand as clients join.

    Shared actors (FrontEnd, VideoStream, ReviewEditor, ReviewChecker)
    serve two clients each; UserInfo/UserReview are per client.
    """

    def __init__(self, bed: TestBed, num_genres: int = 8) -> None:
        self.bed = bed
        self.catalog = bed.system.create_actor(MovieInfo)
        self.genres = [bed.system.create_actor(MovieReview, g)
                       for g in range(num_genres)]
        self._assignments: Dict[int, _ClientActors] = {}
        self._shared_pool: Optional[Tuple[ActorRef, ActorRef, ActorRef]] = None
        self._joined = 0

    def client_joined(self, client_index: int) -> _ClientActors:
        """Allocate (or share) the actor set for a joining client."""
        system = self.bed.system
        if self._shared_pool is None:
            checker = system.create_actor(ReviewChecker)
            frontend = system.create_actor(FrontEnd, self.catalog)
            stream = system.create_actor(VideoStream)
            editor = system.create_actor(
                ReviewEditor, checker,
                self.genres[client_index % len(self.genres)])
            self._shared_pool = (frontend, stream, editor)
        else:
            frontend, stream, editor = self._shared_pool
            self._shared_pool = None
        user_info = system.create_actor(UserInfo, related=stream)
        user_review = system.create_actor(UserReview, related=editor)
        actors = _ClientActors(frontend=frontend, stream=stream,
                               user_info=user_info, editor=editor,
                               user_review=user_review)
        self._assignments[client_index] = actors
        self._joined += 1
        return actors

    def client_left(self, client_index: int) -> None:
        actors = self._assignments.pop(client_index, None)
        if actors is None:
            return
        system = self.bed.system
        system.destroy_actor(actors.user_info)
        system.destroy_actor(actors.user_review)
        # Shared actors are destroyed when their last client leaves.
        still_used = {a.frontend.actor_id
                      for a in self._assignments.values()}
        if actors.frontend.actor_id not in still_used:
            system.destroy_actor(actors.frontend)
            system.destroy_actor(actors.stream)
            system.destroy_actor(actors.editor)
        if self._shared_pool and \
                self._shared_pool[0].actor_id == actors.frontend.actor_id:
            self._shared_pool = None

    def active_clients(self) -> int:
        return len(self._assignments)


def build_media_service(bed: TestBed) -> MediaService:
    """Stand up the Media Service's static actors on ``bed``."""
    return MediaService(bed)


@dataclass
class MediaResult:
    """Fig. 10 outcome for one elasticity period."""

    period_ms: float
    latency_curve: List[Tuple[float, float]]
    server_curve: List[Tuple[float, float]]
    client_curve: List[Tuple[float, float]]
    peak_servers: int
    final_servers: int
    mean_latency_ms: float
    migrations: int


def run_media_experiment(period_ms: float = 60_000.0,
                         num_clients: int = 128,
                         initial_servers: int = 4,
                         max_servers: int = 65,
                         join_mean_ms: float = 120_000.0,
                         leave_mean_ms: float = 1_140_000.0,
                         sigma_ms: float = 90_000.0,
                         duration_ms: float = 1_440_000.0,
                         think_ms: float = 400.0,
                         seed: int = 21,
                         elastic: bool = True) -> MediaResult:
    """Run the Fig. 10 wave experiment for one elasticity period.

    Clients join around ``join_mean_ms`` and leave around
    ``leave_mean_ms`` (defaults: the paper's 2 min / 19 min waves over a
    24-minute run).  The fleet starts at 4 m1.small and may grow to 65.
    """
    bed = build_cluster(initial_servers, instance_type="m1.small",
                        seed=seed, boot_delay_ms=25_000.0,
                        max_servers=max_servers)
    service = build_media_service(bed)

    manager = None
    if elastic:
        policy = compile_source(MEDIA_POLICY, MEDIA_ACTOR_CLASSES)
        manager = ElasticityManager(bed.system, policy, EmrConfig(
            period_ms=period_ms, gem_wait_ms=2_000.0,
            min_servers=initial_servers, max_scale_out_per_period=8,
            scale_instance_type="m1.small"))
        manager.start()

    schedule = normal_wave_schedule(
        num_clients, join_mean_ms, sigma_ms, leave_mean_ms, sigma_ms,
        bed.streams.stream("media-schedule"))
    clients = [Client(bed.system, name=f"c{i}")
               for i in range(num_clients)]
    rng = bed.streams.stream("media-requests")
    client_count = GaugeSeries("clients")
    server_count = GaugeSeries("servers")

    def client_life(index: int, join_ms: float, leave_ms: float):
        yield Timeout(bed.sim, join_ms)
        actors = service.client_joined(index)
        client = clients[index]
        while bed.sim.now < min(leave_ms, duration_ms):
            if rng.random() < 0.5:
                yield from client.timed_call(
                    actors.frontend, "watch", actors.stream,
                    actors.user_info, rng.randrange(500))
            else:
                yield from client.timed_call(
                    actors.frontend, "review", actors.editor,
                    actors.user_review, rng.randrange(500),
                    200 + rng.randrange(800))
            yield Timeout(bed.sim, think_ms)
        service.client_left(index)

    for index, (join_ms, leave_ms) in enumerate(schedule):
        spawn(bed.sim, client_life(index, join_ms, leave_ms))

    def monitor():
        while bed.sim.now < duration_ms:
            yield Timeout(bed.sim, 10_000.0)
            client_count.record(bed.sim.now, service.active_clients())
            server_count.record(bed.sim.now,
                                bed.provisioner.fleet_size())

    spawn(bed.sim, monitor())
    bed.run(until_ms=duration_ms)
    migrations = manager.migrations_total() if manager else 0
    if manager is not None:
        manager.stop()

    curve = latency_curve(clients, bucket_ms=20_000.0)
    latencies = [lat for _t, lat in curve]
    return MediaResult(
        period_ms=period_ms,
        latency_curve=curve,
        server_curve=list(server_count.samples),
        client_curve=list(client_count.samples),
        peak_servers=int(max(v for _t, v in server_count.samples))
        if len(server_count) else initial_servers,
        final_servers=bed.provisioner.fleet_size(),
        mean_latency_ms=sum(latencies) / len(latencies)
        if latencies else 0.0,
        migrations=migrations)
