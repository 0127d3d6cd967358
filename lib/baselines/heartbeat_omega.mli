(** A concrete (non-oracular) Omega leader elector, built from heartbeats.

    Section 3 notes that leader-based round algorithms (Mostéfaoui–Raynal)
    just shift the paper's problem "to that of electing a leader within
    O(δ) seconds of TS, in the presence of obsolete messages and process
    restarts".  This module makes that remark concrete: the classic
    lowest-id-alive election — every process heartbeats every [period],
    trust the smallest id heard within the last [timeout] — stabilizes in
    O(δ) after TS {e only if} no obsolete heartbeats arrive.  A heartbeat
    sent before TS by a since-dead low-id process and delivered after TS
    buys that dead process one whole [timeout] of misplaced trust, and
    ⌈N/2⌉−1 dead processes whose stale heartbeats arrive in id order cost
    O(N·timeout) = O(Nδ) before the first live leader is trusted by
    everyone (experiment E11).

    A process "decides" (engine sense) the id of the first leader it
    trusts {e stably}, i.e. a live process trusted once all stale
    heartbeats it has seen have expired; the decision per se is not
    consensus — the measured quantity is stabilization time.  Agreement
    on the final leader still holds after TS and is checked by the
    experiment. *)

open Consensus

type state

type tuning = {
  period : float;  (** heartbeat period, default [delta /. 2.] *)
  timeout : float;  (** trust duration, default [2 * delta + period] *)
}

val default_tuning : delta:float -> tuning

(** The heartbeat message (exposed so experiments can inject stale ones). *)
type msg = Heartbeat of { id : Types.proc_id }

val protocol :
  ?tuning:tuning -> n:int -> delta:float -> unit ->
  (msg, state) Sim.Engine.protocol


