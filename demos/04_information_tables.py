"""The exact information tables, from hand-built converged policies.

Instead of simulating, construct the fully converged signaling system
directly (sender A: high bit, sender B: low bit, act = state) and print the
information-content tables for each receiver architecture before and after
the replacement of mB0 by the fresh symbol mB?.
"""

from signalgames import make_two_sender_game
from signalgames.agents import (
    ConventionalReceiver,
    GeneralistReceiver,
    MinimalistReceiver,
    Sender,
)
from signalgames.engine import ReplacementEvent, apply_event, take_snapshot
from signalgames.infotheory import (
    compositional_expectation,
    info_table,
    pointwise_info,
    receiver_average_info,
)

game = make_two_sender_game()
BIG = 1e15
SYSTEM = {0: ("mA0", "mB0"), 1: ("mA0", "mB1"), 2: ("mA1", "mB0"), 3: ("mA1", "mB1")}


def converged(receiver):
    senders = [Sender(game, 0), Sender(game, 1)]
    for state, sig in SYSTEM.items():
        for sender, symbol in zip(senders, sig):
            sender.reinforce(state, symbol, BIG)
        receiver.reinforce(sig, state, BIG)
    return senders, receiver


def show(title, table):
    print(f"--- {title}")
    print(table.to_csv())


senders, receiver = converged(ConventionalReceiver(game))
pre = take_snapshot(game, senders, receiver)
show("converged: atomic messages about states", info_table(pre, "atomic", "states"))
show("converged: message pairs about acts", info_table(pre, "compound", "acts"))

event = ReplacementEvent(0, 1, "mB0", "mB?")
apply_event(event, senders, receiver)
post = take_snapshot(game, senders, receiver)
show("conventional, after replacement", info_table(post, "compound", "acts"))
show("what a compositional reading would keep", compositional_expectation(pre, "mB0", "mB?"))
print(f"conventional loses {receiver_average_info(pre) - receiver_average_info(post):.2f} bits on average\n")

senders, receiver = converged(GeneralistReceiver(game, introduction_mode="preserving"))
apply_event(event, senders, receiver)
post = take_snapshot(game, senders, receiver)
show("preserving generalist, after replacement", info_table(post, "compound", "acts"))

minimalist = converged(MinimalistReceiver(game, temperature=2000.0))[1]
minimalist.on_replacement("mB0", "mB?")
print("--- minimalist per-message urns, after replacement")
for slot, symbol in ((0, "mA0"), (0, "mA1"), (1, "mB?"), (1, "mB1")):
    signal = tuple(symbol if i == slot else None for i in range(2))
    row = [pointwise_info(p, 0.25) for p in minimalist.naive_distribution(signal)]
    cells = "  ".join("-inf" if v == float("-inf") else f"{v:5.2f}" for v in row)
    print(f"{symbol:<4}  {cells}")
