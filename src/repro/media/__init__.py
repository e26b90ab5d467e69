"""Media/client substrate: video sessions, playback buffers, players.

* :mod:`repro.media.video` — video session descriptors with constant or
  variable bit-rate profiles (``p_i(n)``, paper Section III-D);
* :mod:`repro.media.buffer` — the remaining-occupancy / rebuffering
  recursions of Eqs. (7)-(8);
* :mod:`repro.media.player` — a streaming client combining the two and
  tracking elapsed vs. total playback time (``m_i`` / ``M_i``);
* :mod:`repro.media.fleet` — the struct-of-arrays :class:`ClientFleet`
  driving all clients of a cell in vectorized lockstep (the engine's
  client state), bit-identical row by row to :class:`StreamingClient`,
  which stays as its per-row reference.
"""

from repro.media.video import BitrateProfile, ConstantBitrateProfile, PiecewiseBitrateProfile, VideoSession
from repro.media.buffer import PlaybackBuffer
from repro.media.fleet import ClientFleet, FleetClientView
from repro.media.player import PlayerState, StreamingClient

__all__ = [
    "BitrateProfile",
    "ConstantBitrateProfile",
    "PiecewiseBitrateProfile",
    "VideoSession",
    "PlaybackBuffer",
    "PlayerState",
    "StreamingClient",
    "ClientFleet",
    "FleetClientView",
]
