"""Known-good FL006: trees made by their constructors, and a class
that builds itself inside its own ``__new__``."""


def restore_tree(tree_cls, geometry, root, next_node_id):
    return tree_cls.restore(geometry, root, next_node_id)


class Extreme:
    def __new__(cls, sign):
        self = super().__new__(cls)
        self.sign = sign
        return self
